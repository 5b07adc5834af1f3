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

Diagnosed runs come from the experiment engine, ``harness.run_cell``,
through a :class:`DiagnosticRecorder`; :func:`run_with_diagnostics` is
its single-seed call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonFiniteValue, OutOfRange, PreconditionNotMet
from .harness import Recorder, run_cell
from .optim import (
    STORM_FAMILY,
    GradientPair,
    HyperParams,
    OptimizerKind,
    _guarded_ratio,
    storm_decomposition,
)
from .problems import StochasticProblem
from .rngutil import make_rng
from .theory import c_rho

# the almost-sure bounds pass up to these relative excesses over 1, the
# rounding of a step or ratio that attains its bound exactly
_MOVEMENT_SLACK = 1e-9
_RATIO_SLACK = 1e-12
# the estimator's two parts must reassemble it up to this relative error
_DECOMPOSITION_TOL = 1e-12


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


class DiagnosticRecorder(Recorder):
    """Per-coordinate diagnostics of every seed of one run_cell call, as
    (S, max T, d) arrays, (S, max T) for ``step_l2``, whose row s is seed
    s; each row is computed as a single run would compute it."""

    needs_prev = True  # Z_t needs the shared-sample gradient at x_{t-1}

    def __init__(self, n_seeds: int, T, d: int):
        super().__init__(n_seeds, T)
        steps = int(self.horizon.max(initial=0))
        shape = (n_seeds, steps, d)
        self.xi = np.empty(shape)
        self.eps = np.empty(shape)
        self.z = np.zeros(shape)       # Z_1 = 0
        self.m = np.empty(shape)
        self.v = np.empty(shape)
        self.grad_exact = np.empty(shape)
        self.g_curr = np.empty(shape)
        self.g_prev = np.zeros(shape)  # row 0 unused
        self.step_l2 = np.empty((n_seeds, steps))

    def record(self, t, live, state, grads, g_exact, grad_l1, loss) -> None:
        """Every array's row t-1 for the live seeds."""
        i = t - 1
        g_curr = grads.g_curr
        self.xi[live, i] = g_curr - g_exact
        if t > 1:
            self.z[live, i] = (g_curr - grads.g_prev) + (self.grad_exact[live, i - 1] - g_exact)
            self.g_prev[live, i] = grads.g_prev
        self.grad_exact[live, i] = g_exact
        self.g_curr[live, i] = g_curr
        self.eps[live, i] = state.m - g_exact
        self.m[live, i] = state.m
        self.v[live, i] = state.v
        diff = state.x - state.prev_x
        for r, s in enumerate(live):
            self.step_l2[s, i] = math.sqrt(float(diff[r].dot(diff[r])))

    def run(self, s: int, seed: int, kind: OptimizerKind, hp: HyperParams) -> DiagnosticRun:
        """Seed s's diagnostics, as views; NonFiniteValue if the seed aborted."""
        n = self.horizon[s]
        if self.done[s] < n:
            raise NonFiniteValue(self.abort_reasons[s])
        return DiagnosticRun(EpsilonTrace(self.xi[s, :n], self.eps[s, :n], self.z[s, :n]),
                             self.m[s, :n], self.v[s, :n], self.grad_exact[s, :n],
                             self.step_l2[s, :n], self.g_curr[s, :n], self.g_prev[s, :n],
                             hp, seed, kind)


def run_with_diagnostics(problem: StochasticProblem, hp: HyperParams, T: int,
                         seed: int, kind: OptimizerKind = OptimizerKind.SIGNSTORM,
                         ) -> DiagnosticRun:
    """Execute T iterations recording the full per-coordinate diagnostics;
    a non-finite update raises :class:`NonFiniteValue`."""
    recorder = DiagnosticRecorder(1, T, problem.d)
    run_cell(problem, kind, hp, T, [seed], recorder)
    return recorder.run(0, seed, kind, hp)


def movement_bound_check(step_l2: np.ndarray, hp: HyperParams, d: int) -> CheckResult:
    """Almost-sure cap on iterate movement: ||x_{t+1}-x_t||_2 <= eta_t sqrt(d/(1-beta2))."""
    if hp.eps_guard != 0.0:
        raise PreconditionNotMet("movement bound is stated for eps_guard = 0")
    T = step_l2.shape[0]
    eta_t = np.array([hp.step_size(t) for t in range(1, T + 1)])
    bound = eta_t * math.sqrt(d / (1.0 - hp.beta2))
    ratios = step_l2 / bound
    worst = int(np.argmax(ratios))
    worst_ratio = float(ratios[worst])
    return CheckResult("movement_bound", worst_ratio <= 1.0 + _MOVEMENT_SLACK,
                       worst_ratio, worst + 1,
                       f"T={T}, bound factor sqrt(d/(1-beta2))={math.sqrt(d / (1.0 - hp.beta2)):.6g}")


def representation_check(eps_trace: EpsilonTrace, beta1: float,
                         tol: float = 1e-6) -> CheckResult:
    """Verify eps_t = b1^t eps_0 + b1 sum b1^(t-s) Z_s + (1-b1) sum b1^(t-s) xi_s.

    The right side is rebuilt by direct weighted summation over s, never by
    the recurrence that produced eps_t.  One pass over s adds the s-th term
    to the sums of every t >= s, so each sum runs sequentially in ascending
    s; the worst t is the first one with the largest error ratio.
    """
    T, d = eps_trace.xi.shape
    scale = tol * (1.0 + float(np.max(np.abs(eps_trace.eps))))
    zx = np.concatenate([eps_trace.z, eps_trace.xi], axis=1)
    # 0^0 = 1 keeps the s = t term alive when beta1 = 0; row k holds
    # beta1^k in every column (a full array multiplies faster than a
    # broadcast column)
    weights = np.repeat(beta1 ** np.arange(T, dtype=np.float64)[:, None], 2 * d, axis=1)
    acc = weights * zx[0]
    term = np.empty_like(acc)
    for s in range(1, T):
        np.multiply(weights[:T - s], zx[s], out=term[:T - s])
        acc[s:] += term[:T - s]
    decay = np.array([beta1 ** t for t in range(1, T + 1)])
    rhs = (decay[:, None] * eps_trace.eps0
           + beta1 * acc[:, :d]
           + (1.0 - beta1) * acc[:, d:])
    ratio = np.max(np.abs(eps_trace.eps - rhs), axis=1) / scale
    # a NaN error never counts as worse, nor does a zero one
    ratio[~(ratio > 0.0)] = 0.0
    worst = int(np.argmax(ratio))
    worst_ratio = float(ratio[worst])
    return CheckResult("representation", worst_ratio <= 1.0, worst_ratio, worst + 1,
                       f"T={T}, beta1={beta1}, abs tolerance {scale:.3g}")


def decomposition_check(run: DiagnosticRun) -> CheckResult:
    """The momentum + correction split must reassemble the estimator exactly.

    For every t >= 2, part_i + part_ii (from
    :func:`signstorm.storm_decomposition`, applied to all rows at once) is
    compared against the recorded m_t at relative tolerance ``_DECOMPOSITION_TOL``.
    """
    if run.kind not in STORM_FAMILY:
        raise PreconditionNotMet("decomposition applies to the variance-reduced estimator")
    T = run.m.shape[0]
    if T < 2:
        return CheckResult("storm_decomposition", True, 0.0, 1, "no t >= 2 rows")
    pair = GradientPair(run.g_curr[1:], run.g_prev[1:])
    part_i, part_ii = storm_decomposition(run.m[:-1], pair, run.hp.beta1)
    err = np.abs((part_i + part_ii) - run.m[1:])
    ratio = err / (_DECOMPOSITION_TOL * (1.0 + np.abs(run.m[1:])))
    flat = int(np.argmax(ratio))
    worst_ratio = float(ratio.flat[flat])
    return CheckResult("storm_decomposition", worst_ratio <= 1.0, worst_ratio,
                       flat // run.m.shape[1] + 2,
                       f"T={T}, relative tolerance {_DECOMPOSITION_TOL:g}")


def estimator_ratio_check(run: DiagnosticRun) -> CheckResult:
    """Deterministic cap |m_tj| / sqrt(v_tj) <= 1/sqrt(1 - beta2) (eps_guard = 0)."""
    if run.hp.eps_guard != 0.0:
        raise PreconditionNotMet("ratio cap is stated for eps_guard = 0")
    ratio = np.abs(_guarded_ratio(run.m, run.v, 0.0))
    cap = 1.0 / math.sqrt(1.0 - run.hp.beta2)
    worst_flat = int(np.argmax(ratio))
    worst = float(ratio.flat[worst_flat] / cap)
    return CheckResult("estimator_ratio", worst <= 1.0 + _RATIO_SLACK, worst,
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


# fewer trials make the violation frequency meaningless
LEMMA1_MIN_TRIALS = 100
# trials drawn per block: the peak memory is one (block, T) array
_LEMMA1_CHUNK = 2000


class MdsKind(enum.Enum):
    """Distribution of the simulated martingale difference terms."""

    RADEMACHER = "rademacher"
    BOUNDED_UNIFORM = "bounded_uniform"


def lemma1_montecarlo(n_trials: int, T: int, delta: float,
                      mds_spec: MdsKind = MdsKind.RADEMACHER,
                      seed: int = 0) -> FrequencyReport:
    """Simulate scalar martingale difference sequences against the envelope

        |sum_{s<=t} X_s| <= 3 R max{1, log(1/delta)}
                            + 3 sqrt(sum_{s<=t} sigma_s^2 max{1, log(1/delta)})

    and count trials whose partial-sum path ever escapes it.  The envelope
    holds per trial with probability >= 1 - 3*delta.
    """
    if n_trials < LEMMA1_MIN_TRIALS:
        raise OutOfRange(f"need n_trials >= {LEMMA1_MIN_TRIALS} for a meaningful "
                         f"frequency, got {n_trials}")
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
    done = 0
    while done < n_trials:
        n = min(_LEMMA1_CHUNK, n_trials - done)
        if mds_spec is MdsKind.RADEMACHER:
            draws = rng.choice([-1.0, 1.0], size=(n, T))
        else:
            draws = rng.uniform(-1.0, 1.0, size=(n, T))
        # the chunk is transformed in place and released before the next
        # draw, so at most one (n, T) array is alive between draws
        paths = np.cumsum(draws, axis=1, out=draws)
        np.abs(paths, out=paths)
        violations += int(np.sum(np.any(paths > bound[None, :], axis=1)))
        del draws, paths
        done += n

    stated = 3.0 * delta
    margin = binomial_margin(stated, n_trials)
    frac = violations / n_trials
    return FrequencyReport("lemma1_montecarlo", n_trials, violations, stated,
                           margin, frac <= stated + margin,
                           f"{mds_spec.value}, T={T}, delta={delta}")
