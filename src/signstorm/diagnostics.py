"""Runtime checkers for the estimator-error quantities the analysis tracks.

Alongside a run with exact gradients available, define per iteration

    xi_t  = grad f(x_t, Xi_t) - grad F(x_t)          sampling noise
    eps_t = m_t - grad F(x_t), eps_0 = xi_1          estimator error
    Z_t   = grad f(x_t, Xi_t) - grad f(x_{t-1}, Xi_t)
            + grad F(x_{t-1}) - grad F(x_t),  Z_1 = 0   drift correction noise

The checkers come in two flavors.  Deterministic identities and almost-sure
bounds (the movement bound, the geometric-sum representation of eps_t, the
estimator-ratio cap) must hold on every run up to floating tolerance.
Probability-bearing statements are measured as violation frequencies over
independently seeded runs and compared one-sidedly against their stated
failure probability plus a binomial margin.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import OutOfRange, PreconditionNotMet
from .optim import (
    GradientPair,
    HyperParams,
    OptimizerKind,
    OptimizerState,
    _guarded_ratio,
    step,
    storm_decomposition,
)
from .problems import StochasticProblem
from .rngutil import make_rng
from .theory import c_rho


@dataclass
class EpsilonTrace:
    """Per-iteration noise/error/drift records of one run; row t-1 holds time t."""

    xi: np.ndarray   # (T, d)
    eps: np.ndarray  # (T, d)
    z: np.ndarray    # (T, d), first row identically zero

    @property
    def eps0(self) -> np.ndarray:
        return self.xi[0]

    @property
    def horizon(self) -> int:
        return self.xi.shape[0]


@dataclass
class DiagnosticRun:
    """EpsilonTrace plus the optimizer internals the lemma checks consume."""

    trace: EpsilonTrace
    m: np.ndarray            # (T, d) estimator after each step
    v: np.ndarray            # (T, d) second moment after each step
    grad_exact: np.ndarray   # (T, d) exact gradient at x_t
    step_l2: np.ndarray      # (T,)   ||x_{t+1} - x_t||_2
    g_curr: np.ndarray       # (T, d) sampled gradient at x_t
    g_prev: np.ndarray       # (T, d) same sample at x_{t-1}; row 0 unused (zero)
    hp: HyperParams
    seed: int
    kind: OptimizerKind


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_ratio: float
    worst_t: int
    detail: str = ""


@dataclass
class FrequencyReport:
    name: str
    n_total: int
    n_violations: int
    stated_bound: float
    margin: float
    passed: bool
    detail: str = ""

    @property
    def violation_fraction(self) -> float:
        return self.n_violations / self.n_total if self.n_total else 0.0

    @property
    def allowed_fraction(self) -> float:
        return self.stated_bound + self.margin


def binomial_margin(p: float, n: int) -> float:
    """One-sided slack added to a stated failure probability p over n cases."""
    p = min(max(p, 0.0), 1.0)  # stated bounds like 6*delta may exceed 1
    return 3.0 * math.sqrt(p * (1.0 - p) / n) if n > 0 else 0.0


def run_with_diagnostics(problem: StochasticProblem, hp: HyperParams, T: int,
                         seed: int, kind: OptimizerKind = OptimizerKind.SIGNSTORM,
                         ) -> DiagnosticRun:
    """Execute T iterations recording the full per-coordinate diagnostics."""
    rng = make_rng(seed)
    d = problem.d
    state = OptimizerState.initial(problem.constants.x_init)
    xi = np.empty((T, d))
    eps = np.empty((T, d))
    z = np.empty((T, d))
    m = np.empty((T, d))
    v = np.empty((T, d))
    grad_exact = np.empty((T, d))
    step_l2 = np.empty(T)
    g_currs = np.zeros((T, d))
    g_prevs = np.zeros((T, d))

    g_exact_prev = None
    for t in range(1, T + 1):
        noise = problem.draw_noise(rng)
        g_curr = problem.stoch_grad(state.x, noise)
        g_prev = problem.stoch_grad(state.prev_x, noise) if t > 1 else None
        g_exact = problem.exact_grad(state.x)

        xi[t - 1] = g_curr - g_exact
        z[t - 1] = 0.0 if t == 1 else (g_curr - g_prev) + (g_exact_prev - g_exact)
        grad_exact[t - 1] = g_exact
        g_currs[t - 1] = g_curr
        if t > 1:
            g_prevs[t - 1] = g_prev

        new_state = step(state, GradientPair(g_curr, g_prev), hp, kind)
        eps[t - 1] = new_state.m - g_exact
        m[t - 1] = new_state.m
        v[t - 1] = new_state.v
        diff = new_state.x - state.x
        step_l2[t - 1] = math.sqrt(float(diff @ diff))

        g_exact_prev = g_exact
        state = new_state

    return DiagnosticRun(EpsilonTrace(xi, eps, z), m, v, grad_exact, step_l2,
                         g_currs, g_prevs, hp, seed, kind)


def movement_bound_check(step_l2: np.ndarray, hp: HyperParams,
                         d: int, rel_slack: float = 1e-9) -> CheckResult:
    """Almost-sure cap on iterate movement: ||x_{t+1}-x_t||_2 <= eta_t sqrt(d/(1-beta2))."""
    if hp.eps_guard != 0.0:
        raise PreconditionNotMet("movement bound is stated for eps_guard = 0")
    T = step_l2.shape[0]
    eta_t = np.array([hp.step_size(t) for t in range(1, T + 1)])
    bound = eta_t * math.sqrt(d / (1.0 - hp.beta2))
    ratios = step_l2 / bound
    worst = int(np.argmax(ratios))
    worst_ratio = float(ratios[worst])
    return CheckResult("movement_bound", worst_ratio <= 1.0 + rel_slack,
                       worst_ratio, worst + 1,
                       f"T={T}, bound factor sqrt(d/(1-beta2))={math.sqrt(d / (1.0 - hp.beta2)):.6g}")


def representation_check(eps_trace: EpsilonTrace, beta1: float,
                         tol: float = 1e-6, check_every: int = 1) -> CheckResult:
    """Verify eps_t = b1^t eps_0 + b1 sum b1^(t-s) Z_s + (1-b1) sum b1^(t-s) xi_s.

    The right side is rebuilt by direct weighted summation over s (numerically
    stable pairwise reduction), never by the recurrence that produced eps_t.
    """
    T = eps_trace.horizon
    eps0 = eps_trace.eps0
    scale = tol * (1.0 + float(np.max(np.abs(eps_trace.eps))))
    worst_ratio = 0.0
    worst_t = 1
    ts = sorted(set(range(1, T + 1, check_every)) | {T})
    for t in ts:
        # 0^0 = 1 keeps the s = t term alive when beta1 = 0
        weights = beta1 ** np.arange(t - 1, -1, -1, dtype=np.float64)
        rhs = (beta1 ** t * eps0
               + beta1 * np.add.reduce(weights[:, None] * eps_trace.z[:t], axis=0)
               + (1.0 - beta1) * np.add.reduce(weights[:, None] * eps_trace.xi[:t], axis=0))
        err = float(np.max(np.abs(eps_trace.eps[t - 1] - rhs)))
        if err / scale > worst_ratio:
            worst_ratio = err / scale
            worst_t = t
    return CheckResult("representation", worst_ratio <= 1.0, worst_ratio, worst_t,
                       f"T={T}, beta1={beta1}, abs tolerance {scale:.3g}")


def decomposition_check(run: DiagnosticRun, tol: float = 1e-12) -> CheckResult:
    """The momentum + correction split must reassemble the estimator exactly.

    For every t >= 2, part_i + part_ii (from
    :func:`signstorm.storm_decomposition`, applied to all rows at once) is
    compared against the recorded m_t at relative tolerance ``tol``.
    """
    if run.kind not in (OptimizerKind.SIGNSTORM, OptimizerKind.STORM,
                        OptimizerKind.L2_NORMALIZED_STORM):
        raise PreconditionNotMet("decomposition applies to the variance-reduced estimator")
    T = run.m.shape[0]
    if T < 2:
        return CheckResult("storm_decomposition", True, 0.0, 1, "no t >= 2 rows")
    pair = GradientPair(run.g_curr[1:], run.g_prev[1:])
    part_i, part_ii = storm_decomposition(run.m[:-1], pair, run.hp.beta1)
    err = np.abs((part_i + part_ii) - run.m[1:])
    ratio = err / (tol * (1.0 + np.abs(run.m[1:])))
    flat = int(np.argmax(ratio))
    worst_ratio = float(ratio.flat[flat])
    return CheckResult("storm_decomposition", worst_ratio <= 1.0, worst_ratio,
                       flat // run.m.shape[1] + 2, f"T={T}, relative tolerance {tol:g}")


def estimator_ratio_check(run: DiagnosticRun, rel_slack: float = 1e-12) -> CheckResult:
    """Deterministic cap |m_tj| / sqrt(v_tj) <= 1/sqrt(1 - beta2) (eps_guard = 0)."""
    if run.hp.eps_guard != 0.0:
        raise PreconditionNotMet("ratio cap is stated for eps_guard = 0")
    ratio = np.abs(_guarded_ratio(run.m, run.v, 0.0))
    cap = 1.0 / math.sqrt(1.0 - run.hp.beta2)
    worst_flat = int(np.argmax(ratio))
    worst = float(ratio.flat[worst_flat] / cap)
    return CheckResult("estimator_ratio", worst <= 1.0 + rel_slack, worst,
                       worst_flat // run.m.shape[1] + 1,
                       f"cap 1/sqrt(1-beta2)={cap:.6g}")


def epsilon_envelope(hp: HyperParams, L_vec: np.ndarray, sigma_vec: np.ndarray,
                 T: int, delta: float) -> np.ndarray:
    """(T, d) high-probability envelope for |eps_tj| at confidence delta."""
    log_term = max(1.0, math.log(1.0 / delta))
    tail = 2.0 * log_term + math.sqrt(log_term / (1.0 - hp.beta1))
    eta_t = np.array([hp.step_size(t) for t in range(1, T + 1)])
    drift = eta_t[:, None] * L_vec[None, :] / math.sqrt(1.0 - hp.beta2)
    decay = (hp.beta1 ** np.arange(1, T + 1))[:, None] * sigma_vec[None, :]
    return decay + 3.0 * (drift + (1.0 - hp.beta1) * sigma_vec[None, :]) * tail


def epsilon_bound_frequency(eps_traces: EpsilonTrace | Sequence[EpsilonTrace],
                            hp: HyperParams, L_vec: np.ndarray,
                            sigma_vec: np.ndarray, confidence_delta: float,
                            ) -> FrequencyReport:
    """Fraction of (t, j, run) entries where |eps_tj| escapes its envelope.

    The statement carries failure probability 6*delta per fixed (t, j), so the
    empirical fraction must stay below 6*delta plus a binomial margin.
    """
    traces = [eps_traces] if isinstance(eps_traces, EpsilonTrace) else list(eps_traces)
    stated = 6.0 * confidence_delta
    total = 0
    violations = 0
    for trace in traces:
        rhs = epsilon_envelope(hp, L_vec, sigma_vec, trace.horizon, confidence_delta)
        violations += int(np.sum(np.abs(trace.eps) > rhs))
        total += trace.eps.size
    margin = binomial_margin(stated, total)
    frac = violations / total if total else 0.0
    return FrequencyReport("epsilon_bound", total, violations, stated, margin,
                           frac <= stated + margin,
                           f"{len(traces)} runs, delta={confidence_delta}")


def sign_dichotomy_frequency(runs: DiagnosticRun | Sequence[DiagnosticRun],
                             L_vec: np.ndarray, sigma_vec: np.ndarray,
                             confidence_delta: float) -> FrequencyReport:
    """Fraction of (t, j, run) entries where neither dichotomy branch holds.

    Branch one: c(rho) |d_j F(x_t)| is below the epsilon envelope.  Branch
    two: m_tj agrees in sign with d_j F(x_t) and |m_tj|/sqrt(v_tj) >=
    (1-rho)/(5 sqrt(1-beta2)).  The lemma grants one of the two with failure
    probability 6*delta per fixed (t, j).
    """
    runs = [runs] if isinstance(runs, DiagnosticRun) else list(runs)
    stated = 6.0 * confidence_delta
    total = 0
    violations = 0
    for run in runs:
        hp = run.hp
        if hp.eps_guard != 0.0:
            raise PreconditionNotMet("dichotomy check is stated for eps_guard = 0")
        rho = hp.rho
        if not rho < 1.0:
            raise PreconditionNotMet(f"dichotomy check needs rho < 1, got {rho}")
        T = run.grad_exact.shape[0]
        rhs = epsilon_envelope(hp, L_vec, sigma_vec, T, confidence_delta)
        branch1 = c_rho(rho) * np.abs(run.grad_exact) < rhs
        ratio = np.abs(_guarded_ratio(run.m, run.v, 0.0))
        threshold = (1.0 - rho) / (5.0 * math.sqrt(1.0 - hp.beta2))
        branch2 = (np.sign(run.grad_exact) == np.sign(run.m)) & (ratio >= threshold)
        violations += int(np.sum(~(branch1 | branch2)))
        total += run.m.size
    margin = binomial_margin(stated, total)
    frac = violations / total if total else 0.0
    return FrequencyReport("sign_dichotomy", total, violations, stated, margin,
                           frac <= stated + margin,
                           f"{len(runs)} runs, delta={confidence_delta}")


class MdsKind(enum.Enum):
    """Distribution of the simulated martingale difference terms."""

    RADEMACHER = "rademacher"
    BOUNDED_UNIFORM = "bounded_uniform"


@dataclass
class ConcentrationTrial:
    """One simulated trial against the partial-sum concentration envelope."""

    R: float
    sigma_sq_seq: np.ndarray
    delta: float
    observed_max_partial_sum: float


def lemma1_montecarlo(n_trials: int, T: int, delta: float,
                      mds_spec: MdsKind = MdsKind.RADEMACHER,
                      seed: int = 0, chunk: int = 2000,
                      ) -> tuple[FrequencyReport, ConcentrationTrial]:
    """Simulate scalar martingale difference sequences against the envelope

        |sum_{s<=t} X_s| <= 3 R max{1, log(1/delta)}
                            + 3 sqrt(sum_{s<=t} sigma_s^2 max{1, log(1/delta)})

    and count trials whose partial-sum path ever escapes it.  The envelope
    holds per trial with probability >= 1 - 3*delta.
    """
    if n_trials < 100:
        raise OutOfRange(f"need n_trials >= 100 for a meaningful frequency, got {n_trials}")
    if mds_spec is MdsKind.RADEMACHER:
        R, sigma_sq = 1.0, 1.0
    elif mds_spec is MdsKind.BOUNDED_UNIFORM:
        R, sigma_sq = 1.0, 1.0 / 3.0
    else:
        raise OutOfRange(f"unknown martingale spec {mds_spec!r}")

    log_term = max(1.0, math.log(1.0 / delta))
    sigma_seq = np.full(T, sigma_sq)
    bound = 3.0 * R * log_term + 3.0 * np.sqrt(np.cumsum(sigma_seq) * log_term)

    rng = make_rng(seed)
    violations = 0
    worst_excess = -math.inf
    worst_max = 0.0
    done = 0
    while done < n_trials:
        n = min(chunk, n_trials - done)
        if mds_spec is MdsKind.RADEMACHER:
            draws = rng.choice([-1.0, 1.0], size=(n, T))
        else:
            draws = rng.uniform(-1.0, 1.0, size=(n, T))
        # the chunk is transformed in place and released before the next
        # draw, so at most one (n, T) array is alive between draws
        paths = np.cumsum(draws, axis=1, out=draws)
        np.abs(paths, out=paths)
        violations += int(np.sum(np.any(paths > bound[None, :], axis=1)))
        row_max = np.max(paths, axis=1)
        paths -= bound[None, :]
        excess = np.max(paths, axis=1)
        k = int(np.argmax(excess))
        if excess[k] > worst_excess:
            worst_excess = float(excess[k])
            worst_max = float(row_max[k])
        del draws, paths
        done += n

    stated = 3.0 * delta
    margin = binomial_margin(stated, n_trials)
    frac = violations / n_trials
    report = FrequencyReport("lemma1_montecarlo", n_trials, violations, stated,
                             margin, frac <= stated + margin,
                             f"{mds_spec.value}, T={T}, delta={delta}")
    return report, ConcentrationTrial(R, sigma_seq, delta, worst_max)
