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
whose recorder is a :class:`DiagnosticRun` holding one chunk of seeds;
:func:`run_with_diagnostics` is its call for a list of seeds, each record
holding its seed's whole horizon.  The lemmas are statements about one
run, so every checker reads one seed, as :meth:`DiagnosticRun.seed_view`
gives it, and refuses a stacked argument; :func:`check_seed_by_seed` is
the reduction over whole records, and :func:`merge` its associative rule.
:func:`check_in_blocks`, which ``signstorm check`` calls, gives the same
results holding a bounded block of steps: its recorder, a
:class:`CheckedRun`, folds each block of B steps through the checkers
that are local in t as it fills, and keeps only the first
``REPRESENTATION_STEPS`` steps of xi, eps and Z for the representation
check, so its memory does not grow with T.  Both folds call the
checkers through one table, :data:`RECORD_CHECKS`.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, OutOfRange, PreconditionNotMet
from .harness import Recorder, run_cell
from .optim import (
    STORM_FAMILY,
    GradientPair,
    HyperParams,
    OptimizerKind,
    _guarded_ratio,
    _row_norms,
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
# the rebuilt eps_t must match the recorded one up to this relative error
_REPRESENTATION_TOL = 1e-6
# check_in_blocks checks the representation on each seed's first steps, at
# most this many: the check costs O(T^2 d) and holds 3 d values per step
REPRESENTATION_STEPS = 2000
# a CheckedRun holds about this many values per recorded array: B steps of
# its S seeds' d coordinates, B = this // (S d), but at least _BLOCK_STEPS
_BLOCK_VALUES = 1 << 14
# each block costs every seed one call of each checker, so a chunk of many
# seeds, whose budget alone would give short blocks, checks this many steps
# at a time: about 10 MB of blocks at any d, as a full chunk has S d ~ 1024
_BLOCK_STEPS = 256


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_ratio: float
    worst_t: int


@dataclass
class FrequencyReport:
    """n_violations of n_total cases against a stated failure probability;
    it passes up to that probability plus a binomial margin."""

    name: str
    n_total: int
    n_violations: int
    stated_bound: float

    @property
    def violation_fraction(self) -> float:
        return self.n_violations / self.n_total if self.n_total else 0.0

    @property
    def allowed_fraction(self) -> float:
        return self.stated_bound + binomial_margin(self.stated_bound, self.n_total)

    @property
    def passed(self) -> bool:
        return self.violation_fraction <= self.allowed_fraction


# one checker's result on one seed or more: a precondition error is a result
Result = CheckResult | FrequencyReport | PreconditionNotMet


def binomial_margin(p: float, n: int) -> float:
    """One-sided slack added to a stated failure probability p over n cases."""
    p = min(max(p, 0.0), 1.0)  # stated bounds like 6*delta may exceed 1
    return 3.0 * math.sqrt(p * (1.0 - p) / n) if n > 0 else 0.0


class DiagnosticRun(Recorder):
    """Every seed of one diagnosed :func:`run_cell` chunk with one horizon T:
    row s of each array is the chunk's seed s, as a single run computes it,
    and row r of a seed holds time ``t0`` + r.  It holds ``rows`` rows, by
    default the whole horizon, from t0 = 1."""

    needs_prev = True  # Z_t needs the shared-sample gradient at x_{t-1}
    t0 = 1

    def __init__(self, n_seeds: int, T, d: int, hp: HyperParams, kind: OptimizerKind,
                 rows: int | None = None):
        super().__init__(n_seeds, T)
        self.hp, self.kind = hp, kind
        shape = (n_seeds, int(self.horizon.max(initial=0)) if rows is None else rows, d)
        self.m = np.empty(shape)           # estimator after each step
        self.v = np.empty(shape)           # second moment after each step
        self.grad_exact = np.empty(shape)  # exact gradient at x_t
        self.g_curr = np.empty(shape)      # sampled gradient at x_t
        self.g_prev = np.zeros(shape)      # same sample at x_{t-1}; row 0 unused
        self.step_l2 = np.empty(shape[:2])  # ||x_{t+1} - x_t||_2

    def record(self, t, live, state, grads, g_exact, grad_l1, loss) -> None:
        """Every array's row t - t0 for the live seeds."""
        i = t - self.t0
        if t > 1:
            self.g_prev[live, i] = grads.g_prev
        self.grad_exact[live, i] = g_exact
        self.g_curr[live, i] = grads.g_curr
        self.m[live, i] = state.m
        self.v[live, i] = state.v
        self.step_l2[live, i] = _row_norms(state.x - state.prev_x)[:, 0]

    def seed_view(self, s: int, lo: int = 0, hi: int | None = None) -> "SeedRecord":
        """Seed s alone, rows lo..hi-1 (all by default) of the six arrays,
        as views, not copies."""
        rows = slice(lo, hi)
        return SeedRecord(self.hp, self.kind, self.m[s, rows], self.v[s, rows],
                          self.grad_exact[s, rows], self.g_curr[s, rows],
                          self.g_prev[s, rows], self.step_l2[s, rows], self.t0 + lo)


@dataclass(frozen=True, eq=False)
class SeedRecord:
    """One diagnosed seed, as every checker reads it: :class:`DiagnosticRun`'s
    rows of that seed, (T, d) or (T,), row 0 holding time ``start``.  xi,
    eps and Z are derived on access; Z's row 0 is Z_1 = 0 where start = 1,
    and is not Z_start otherwise, which needs the row before."""

    hp: HyperParams
    kind: OptimizerKind
    m: np.ndarray
    v: np.ndarray
    grad_exact: np.ndarray
    g_curr: np.ndarray
    g_prev: np.ndarray
    step_l2: np.ndarray
    start: int = 1

    @property
    def xi(self) -> np.ndarray:
        return self.g_curr - self.grad_exact

    @property
    def eps(self) -> np.ndarray:
        return self.m - self.grad_exact

    @property
    def z(self) -> np.ndarray:
        z = np.zeros_like(self.g_curr)  # Z_1 = 0
        # (g_curr - g_prev) + (grad_{t-1} - grad_t), one temporary at a time
        np.subtract(self.g_curr[1:], self.g_prev[1:], out=z[1:])
        z[1:] += self.grad_exact[:-1] - self.grad_exact[1:]
        return z


def run_with_diagnostics(problem: StochasticProblem, hp: HyperParams, T: int,
                         seeds: list[int], kind: OptimizerKind = OptimizerKind.SIGNSTORM,
                         ) -> Iterator[SeedRecord]:
    """T iterations of every seed, stepped by one :func:`run_cell` call with
    the full per-coordinate diagnostics; yields each seed's :class:`SeedRecord`
    in seed order, chunk by chunk, and raises the lowest-index non-finite
    seed's :class:`NonFiniteValue` in place of its chunk's records."""
    for _, run in run_cell(problem, kind, hp, T, seeds, lambda n_seeds, horizons:
                           DiagnosticRun(n_seeds, horizons, problem.d, hp, kind)):
        aborted = np.flatnonzero(run.done < run.horizon)
        if aborted.size:
            raise NonFiniteValue(run.abort_reasons[aborted[0]])
        for s in range(run.horizon.size):
            yield run.seed_view(s)
        del run  # not alive while the next chunk is stepped


def _one_seed(ndim: int = 2, **arrays: np.ndarray) -> None:
    """Refuse any of ``arrays`` that is not one seed's: (T, d), or (T,) at ndim 1."""
    for name, array in arrays.items():
        if np.ndim(array) != ndim:
            raise DimensionMismatch(f"{name} must be one seed's {('(T,)', '(T, d)')[ndim - 1]} "
                                    f"array, got shape {np.shape(array)}")


def movement_bound_check(step_l2: np.ndarray, hp: HyperParams, d: int,
                         start: int = 1) -> CheckResult:
    """Almost-sure cap on iterate movement: ||x_{t+1}-x_t||_2 <= eta_t sqrt(d/(1-beta2)),
    ``step_l2`` holding the steps from time ``start`` on."""
    _one_seed(1, step_l2=step_l2)
    if hp.eps_guard != 0.0:
        raise PreconditionNotMet("movement bound is stated for eps_guard = 0")
    T = start + len(step_l2) - 1
    ratio = step_l2 / (hp.step_sizes(T, start) * math.sqrt(d / (1.0 - hp.beta2)))
    worst = int(np.argmax(ratio))
    worst_ratio = float(ratio[worst])
    return CheckResult("movement_bound", worst_ratio <= 1.0 + _MOVEMENT_SLACK,
                       worst_ratio, worst + start)


def _geometric_sums(rows: np.ndarray, beta1: float) -> np.ndarray:
    """Row t-1 holds sum_{s<=t} beta1^(t-s) rows[s-1].

    Row 0's terms seed every sum; then one pass over the lag k = t - s,
    longest first, adds beta1^k times the contiguous rows 1.. to the sums
    k rows below.  Each sum thus receives its products in ascending s, one
    at a time, and every bit equals that of a sequential loop over s.
    """
    T = rows.shape[0]
    # 0^0 = 1 keeps the s = t term alive when beta1 = 0
    w = beta1 ** np.arange(T, dtype=np.float64)
    acc = w[:, None] * rows[0]
    term = np.empty_like(acc)
    for k in range(T - 2, -1, -1):
        n = T - 1 - k
        np.multiply(rows[1:n + 1], w[k], out=term[:n])
        acc[k + 1:] += term[:n]
    return acc


def representation_check(xi: np.ndarray, eps: np.ndarray, z: np.ndarray,
                         beta1: float) -> CheckResult:
    """Verify eps_t = b1^t eps_0 + b1 sum b1^(t-s) Z_s + (1-b1) sum b1^(t-s) xi_s.

    The right side is rebuilt by direct weighted summation over s
    (:func:`_geometric_sums`), never by the recurrence that produced eps_t.
    """
    _one_seed(xi=xi, eps=eps, z=z)
    T, d = xi.shape
    scale = _REPRESENTATION_TOL * (1.0 + float(np.max(np.abs(eps))))
    acc = _geometric_sums(np.concatenate([z, xi], axis=1), beta1)
    decay = np.array([beta1 ** t for t in range(1, T + 1)])
    rhs = (decay[:, None] * xi[0]  # eps_0 = xi_1
           + beta1 * acc[:, :d]
           + (1.0 - beta1) * acc[:, d:])
    ratio = np.max(np.abs(eps - rhs), axis=1) / scale
    # a NaN error never counts as worse, nor does a zero one
    ratio[~(ratio > 0.0)] = 0.0
    worst = int(np.argmax(ratio))
    worst_ratio = float(ratio[worst])
    return CheckResult("representation", worst_ratio <= 1.0, worst_ratio, worst + 1)


def decomposition_check(run: SeedRecord) -> CheckResult:
    """The momentum + correction split must reassemble the estimator exactly.

    For every row after the first (every t >= 2 of a whole run), part_i +
    part_ii (from :func:`signstorm.storm_decomposition`, applied to all
    rows at once) is compared against the recorded m_t at relative
    tolerance ``_DECOMPOSITION_TOL``.
    """
    _one_seed(m=run.m)
    if run.kind not in STORM_FAMILY:
        raise PreconditionNotMet("decomposition applies to the variance-reduced estimator")
    T, d = run.m.shape
    if T < 2:
        return CheckResult("storm_decomposition", True, 0.0, run.start)  # no such rows
    m_next = run.m[1:]
    pair = GradientPair(run.g_curr[1:], run.g_prev[1:])
    err, part_ii = storm_decomposition(run.m[:-1], pair, run.hp.beta1)
    # in place: every (T, d) temporary adds to the peak memory of `check`
    err += part_ii
    del part_ii
    err -= m_next
    np.abs(err, out=err)
    scale = np.abs(m_next)
    scale += 1.0
    scale *= _DECOMPOSITION_TOL
    err /= scale
    flat = int(np.argmax(err))
    worst_ratio = float(err.flat[flat])
    return CheckResult("storm_decomposition", worst_ratio <= 1.0, worst_ratio,
                       flat // d + 1 + run.start)


def estimator_ratio_check(run: SeedRecord) -> CheckResult:
    """Deterministic cap |m_tj| / sqrt(v_tj) <= 1/sqrt(1 - beta2) (eps_guard = 0)."""
    return _scaled_ratio(_largest_ratio(run), run.hp)


def _largest_ratio(run: SeedRecord) -> CheckResult:
    """:func:`estimator_ratio_check`'s result with its worst ratio not yet
    divided by the cap, which :func:`_scaled_ratio` does: two ratios may
    round to one scaled value, so the first largest is found, and folds
    over blocks of t are merged, before the division."""
    _one_seed(m=run.m)
    if run.hp.eps_guard != 0.0:
        raise PreconditionNotMet("ratio cap is stated for eps_guard = 0")
    ratio = np.abs(_guarded_ratio(run.m, run.v, 0.0))
    flat = int(np.argmax(ratio))
    worst = float(ratio.flat[flat])
    return CheckResult("estimator_ratio", worst / _ratio_cap(run.hp) <= 1.0 + _RATIO_SLACK,
                       worst, flat // run.m.shape[1] + run.start)


def _ratio_cap(hp: HyperParams) -> float:
    return 1.0 / math.sqrt(1.0 - hp.beta2)


def _scaled_ratio(res: Result, hp: HyperParams) -> Result:
    """A :func:`_largest_ratio` result, or a fold of them, with its worst
    ratio divided by the cap; a precondition error is passed through."""
    if isinstance(res, PreconditionNotMet):
        return res
    return dataclasses.replace(res, worst_ratio=res.worst_ratio / _ratio_cap(hp))


def epsilon_envelope(hp: HyperParams, L_vec: np.ndarray, sigma_vec: np.ndarray,
                     T: int, delta: float, start: int = 1) -> np.ndarray:
    """High-probability envelope for |eps_tj| at confidence delta, row t -
    start for t = start..T; every row is the same at any start."""
    log_term = max(1.0, math.log(1.0 / delta))
    tail = 2.0 * log_term + math.sqrt(log_term / (1.0 - hp.beta1))
    drift = hp.step_sizes(T, start)[:, None] * L_vec[None, :] / math.sqrt(1.0 - hp.beta2)
    decay = (hp.beta1 ** np.arange(start, T + 1))[:, None] * sigma_vec[None, :]
    return decay + 3.0 * (drift + (1.0 - hp.beta1) * sigma_vec[None, :]) * tail


def _frequency(name: str, violations: np.ndarray, confidence_delta: float) -> FrequencyReport:
    """The report on one run's (T, d) mask of violations, every entry of
    which carries failure probability 6*delta."""
    return FrequencyReport(name, violations.size, int(np.count_nonzero(violations)),
                           6.0 * confidence_delta)


def epsilon_bound_frequency(eps: np.ndarray, envelope: np.ndarray,
                            confidence_delta: float) -> FrequencyReport:
    """Fraction of one seed's (t, j) entries where |eps_tj| escapes
    ``envelope``, its :func:`epsilon_envelope`; the statement carries
    failure probability 6*delta per fixed (t, j)."""
    _one_seed(eps=eps)
    return _frequency("epsilon_bound", np.abs(eps) > envelope, confidence_delta)


def sign_dichotomy_frequency(run: SeedRecord, envelope: np.ndarray,
                             confidence_delta: float) -> FrequencyReport:
    """Fraction of one seed's (t, j) entries where neither dichotomy branch holds.

    Branch one: c(rho) |d_j F(x_t)| is below ``envelope``.  Branch two:
    m_tj agrees in sign with d_j F(x_t) and |m_tj|/sqrt(v_tj) >=
    (1-rho)/(5 sqrt(1-beta2)).  The lemma grants one of the two with failure
    probability 6*delta per fixed (t, j).
    """
    _one_seed(m=run.m)
    hp = run.hp
    if hp.eps_guard != 0.0:
        raise PreconditionNotMet("dichotomy check is stated for eps_guard = 0")
    rho = hp.rho
    if not rho < 1.0:
        raise PreconditionNotMet(f"dichotomy check needs rho < 1, got {rho}")
    # in place, as in decomposition_check; the ratio's block takes the signs
    block = np.abs(run.grad_exact)
    block *= c_rho(rho)
    branch1 = block < envelope
    del block
    ratio = _guarded_ratio(run.m, run.v, 0.0)
    threshold = (1.0 - rho) / (5.0 * math.sqrt(1.0 - hp.beta2))
    branch2 = np.abs(ratio, out=ratio) >= threshold
    branch2 &= np.sign(run.grad_exact, out=ratio) == np.sign(run.m)
    return _frequency("sign_dichotomy", ~(branch1 | branch2), confidence_delta)


# Each record-reading checker in suite order: name -> its verdict's kind and
# its call on rows of one seed, ``fresh``, given their rows of the envelope
# and delta; ``carried`` holds the same rows after the one before them,
# where there is one, as the decomposition reads m_{t-1}, and a whole
# record is both.  The estimator ratio is left undivided by its cap, so a
# fold over blocks of t compares the ratios themselves; :func:`_closed`
# divides it once a seed is folded.  Every fold looks its checker up here
# when it runs, so a patched one is called.
RECORD_CHECKS = {
    "movement_bound": ("deterministic", lambda fresh, carried, envelope, delta:
                       movement_bound_check(fresh.step_l2, fresh.hp, fresh.m.shape[1],
                                            fresh.start)),
    "representation": ("deterministic", lambda fresh, carried, envelope, delta:
                       representation_check(fresh.xi, fresh.eps, fresh.z, fresh.hp.beta1)),
    "storm_decomposition": ("deterministic", lambda fresh, carried, envelope, delta:
                            decomposition_check(carried)),
    "estimator_ratio": ("deterministic", lambda fresh, carried, envelope, delta:
                        _largest_ratio(fresh)),
    "epsilon_bound": ("statistical", lambda fresh, carried, envelope, delta:
                      epsilon_bound_frequency(fresh.eps, envelope, delta)),
    "sign_dichotomy": ("statistical", lambda fresh, carried, envelope, delta:
                       sign_dichotomy_frequency(fresh, envelope, delta)),
}


def merge(kept: Result | None, res: Result) -> Result:
    """One checker's result on earlier seeds, ``kept`` (None before the first),
    and on later ones, ``res``, as one: the first precondition error stays, a
    :class:`FrequencyReport` adds its counts and a :class:`CheckResult` keeps
    the first largest worst ratio, NaN counting as largest."""
    if kept is None:
        return res
    for first in (kept, res):
        if isinstance(first, PreconditionNotMet):
            return first
    if isinstance(res, FrequencyReport):
        return FrequencyReport(kept.name, kept.n_total + res.n_total,
                               kept.n_violations + res.n_violations, kept.stated_bound)
    if math.isnan(kept.worst_ratio) or res.worst_ratio <= kept.worst_ratio:
        return kept
    return res


def _fold_rows(kept: dict[str, Result], names: Iterable[str], fresh, carried,
               envelope: np.ndarray | None, confidence_delta: float) -> dict[str, Result]:
    """Each checker of ``names`` on one seed's rows, merged into ``kept``,
    its results on the seed's earlier rows; a checker whose precondition
    failed there is not called again, as it fails on every row alike.  The
    error is stripped of the traceback that would hold the rows."""
    for name in names:
        res = kept.get(name)
        if isinstance(res, PreconditionNotMet):
            continue
        try:
            new = RECORD_CHECKS[name][1](fresh, carried, envelope, confidence_delta)
        except PreconditionNotMet as exc:
            new = exc.with_traceback(None)
        kept[name] = merge(res, new)
    return kept


def _closed(seed: dict[str, Result], hp: HyperParams) -> dict[str, Result]:
    """One seed's folded results as its whole-record checker calls give
    them: the estimator ratio divided by its cap."""
    if "estimator_ratio" in seed:
        seed["estimator_ratio"] = _scaled_ratio(seed["estimator_ratio"], hp)
    return seed


def check_seed_by_seed(records: Iterable[SeedRecord], envelope: np.ndarray,
                       confidence_delta: float) -> dict[str, Result]:
    """Every checker of :data:`RECORD_CHECKS` on each of ``records``.

    The one reduction over seeds: each checker runs on every record in
    order, and a record is dropped before the next is drawn, so beside
    ``records`` only one seed's temporaries are alive, and one envelope,
    the records' :func:`epsilon_envelope`, serves every seed.  Returns
    checker name -> its results on every seed, folded by :func:`merge`; a
    precondition error is the one the checker raised on the first seed,
    and later seeds skip the call.
    """
    merged: dict[str, Result] = {}
    for record in records:
        names = [name for name in RECORD_CHECKS
                 if not isinstance(merged.get(name), PreconditionNotMet)]
        seed = _closed(_fold_rows({}, names, record, record, envelope, confidence_delta),
                       record.hp)
        for name, res in seed.items():
            merged[name] = merge(merged.get(name), res)
        del record, seed  # not alive while the next chunk is stepped
    return merged


@dataclass(frozen=True, eq=False)
class _Head:
    """The xi, eps and Z rows a :class:`CheckedRun` keeps of one seed, as
    the representation check reads them."""

    hp: HyperParams
    xi: np.ndarray
    eps: np.ndarray
    z: np.ndarray


class CheckedRun(DiagnosticRun):
    """A :class:`DiagnosticRun` of one horizon T that checks its chunk as
    it is stepped, holding B steps of its seeds at a time and, for the
    representation check, 3 R d values a seed, R = min(T,
    ``REPRESENTATION_STEPS``).

    Row 0 of each array carries the block before's last step (time t0),
    and rows 1..B take the block's; when they are full, and at
    :meth:`finish`, every seed that has not aborted goes through the
    checkers of :data:`RECORD_CHECKS` but the representation on its new
    rows against their rows of the envelope, and each checker's results
    on a seed's blocks are folded by :func:`merge` in t order, which gives
    the bits of one call on the seed's whole record.  ``head`` keeps each seed's xi, eps and Z
    up to time R for :func:`representation_check`.
    """

    t0 = 0  # time 0 does not exist: the first block carries no row

    def __init__(self, n_seeds: int, T, d: int, hp: HyperParams, kind: OptimizerKind,
                 L_vec: np.ndarray, sigma_vec: np.ndarray, confidence_delta: float):
        T = int(np.max(T))
        block = max(1, min(T, max(_BLOCK_VALUES // (n_seeds * d), _BLOCK_STEPS)))
        super().__init__(n_seeds, T, d, hp, kind, rows=block + 1)
        self.L_vec, self.sigma_vec, self.delta = L_vec, sigma_vec, confidence_delta
        shape = (n_seeds, min(T, REPRESENTATION_STEPS), d)
        self.head = {name: np.empty(shape) for name in ("xi", "eps", "z")}
        self.kept: list[dict[str, Result]] = [{} for _ in range(n_seeds)]

    def record(self, t, live, state, grads, g_exact, grad_l1, loss) -> None:
        if t - self.t0 == self.m.shape[1]:
            self._fold(self.m.shape[1] - 1)
        super().record(t, live, state, grads, g_exact, grad_l1, loss)

    def _fold(self, n: int) -> None:
        """Check rows 1..n of every seed that has not aborted, then carry
        row n to row 0."""
        T, t0 = int(self.horizon[0]), self.t0
        lo = 0 if t0 else 1  # the first row the decomposition and Z read
        envelope = epsilon_envelope(self.hp, self.L_vec, self.sigma_vec, t0 + n, self.delta,
                                    t0 + 1)
        # the representation sums over every earlier step, so it waits for
        # finish(); the decomposition checks no row at t = 1: a first block
        # of that row alone is skipped, unless it is the whole run (T = 1)
        names = [name for name in RECORD_CHECKS if name != "representation"
                 and (name != "storm_decomposition" or n > lo or t0 + n == T)]
        head = min(n, self.head["xi"].shape[1] - t0)  # the new rows up to time R
        for s in np.flatnonzero(self.done == self.horizon).tolist():
            fresh, carried = self.seed_view(s, 1, n + 1), self.seed_view(s, lo, n + 1)
            if head > 0:
                part = self.seed_view(s, lo, head + 1)
                for name, rows in self.head.items():
                    rows[s, t0:t0 + head] = getattr(part, name)[1 - lo:]
            _fold_rows(self.kept[s], names, fresh, carried, envelope, self.delta)
        for array in (self.m, self.grad_exact):
            array[:, 0] = array[:, n]
        self.t0 += n

    def finish(self) -> dict[str, Result]:
        """Every checker of :data:`RECORD_CHECKS` on the chunk, its seeds'
        results merged in seed order, once its last block is folded and
        freed; the representation check reads each seed's first R steps."""
        self._fold(int(self.horizon[0]) - self.t0)
        # the block is read no more: freed before the representation checks
        self.m = self.v = self.grad_exact = self.g_curr = self.g_prev = self.step_l2 = None
        merged: dict[str, Result] = {}
        for s, seed in enumerate(self.kept):
            head = _Head(self.hp, self.head["xi"][s], self.head["eps"][s], self.head["z"][s])
            seed = _closed(_fold_rows(seed, ["representation"], head, head, None, self.delta),
                           self.hp)
            for name in RECORD_CHECKS:
                merged[name] = merge(merged.get(name), seed[name])
        return merged


def check_in_blocks(problem: StochasticProblem, hp: HyperParams, T: int, seeds: list[int],
                    confidence_delta: float, kind: OptimizerKind = OptimizerKind.SIGNSTORM,
                    ) -> dict[str, Result]:
    """:func:`check_seed_by_seed` on :func:`run_with_diagnostics` (``problem``,
    ``hp``, ``T``, ``seeds``, ``kind``) against the problem's
    :func:`epsilon_envelope`, with the representation checked on each
    seed's first min(T, ``REPRESENTATION_STEPS``) steps; the same bits.

    One :func:`run_cell` call steps the seeds, chunk by chunk, and each
    chunk's :class:`CheckedRun` folds its blocks as they fill, so beside
    one chunk's blocks and representation rows only one block's and one
    seed's temporaries are alive, whatever T.  Raises the lowest-index
    non-finite seed's :class:`NonFiniteValue` in place of its chunk's
    results.
    """
    consts = problem.constants
    merged: dict[str, Result] = {}
    for _, run in run_cell(problem, kind, hp, T, seeds, lambda n_seeds, horizons: CheckedRun(
            n_seeds, horizons, problem.d, hp, kind, consts.L_vec, consts.sigma_vec,
            confidence_delta)):
        aborted = np.flatnonzero(run.done < run.horizon)
        if aborted.size:
            raise NonFiniteValue(run.abort_reasons[aborted[0]])
        for name, res in run.finish().items():
            merged[name] = merge(merged.get(name), res)
        del run  # not alive while the next chunk is stepped
    return merged


# fewer trials make the violation frequency meaningless
LEMMA1_MIN_TRIALS = 100
# trials drawn per block, at most 1 MB (one trial at least): the peak
# memory is one (block, T) array, int32 step counts for Rademacher terms
# and float64 partial sums otherwise.  Blocks draw one stream at any row
# boundary, so the budget moves no count; from 0.5 to 8 MB it moves the
# time by a few percent, while a larger block adds its bytes to the peak
# of `check`
_LEMMA1_BYTES = 1_000_000


class MdsKind(enum.Enum):
    """Distribution of the simulated martingale difference terms."""

    RADEMACHER = "rademacher"
    BOUNDED_UNIFORM = "bounded_uniform"


def _escaped_paths(paths: np.ndarray, bound: np.ndarray) -> int:
    """Rows of |partial sums| ``paths`` that exceed ``bound`` at some t.

    ``paths`` is overwritten with paths - bound, which is positive exactly
    where a path exceeds its bound, in integers and in IEEE arithmetic alike.
    """
    np.subtract(paths, bound, out=paths)
    return int(np.count_nonzero(paths.max(axis=1) > 0))


def lemma1_montecarlo(n_trials: int, T: int, delta: float,
                      mds_spec: MdsKind = MdsKind.RADEMACHER,
                      seed: int = 0) -> FrequencyReport:
    """Simulate scalar martingale difference sequences against the envelope

        |sum_{s<=t} X_s| <= 3 R max{1, log(1/delta)}
                            + 3 sqrt(sum_{s<=t} sigma_s^2 max{1, log(1/delta)})

    and count trials whose partial-sum path ever escapes it.  The envelope
    holds per trial with probability >= 1 - 3*delta.

    Rademacher paths are simulated on integer step counts: with c_t the
    number of +1 steps up to t, the partial sum is 2 c_t - t, the value the
    float64 sum of +-1.0 terms holds exactly, and an integer exceeds the
    bound exactly when it exceeds the bound's floor.
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
    counts = np.float64
    if mds_spec is MdsKind.RADEMACHER:
        # 2 c_t - t must not overflow; both dtypes draw the same stream
        counts = np.int32 if 2 * T <= np.iinfo(np.int32).max else np.int64
        steps = np.arange(1, T + 1, dtype=counts)
        # no |S_t| exceeds T, so a larger bound is as good as T
        bound = np.minimum(np.floor(bound), T).astype(counts)

    block = max(1, _LEMMA1_BYTES // (T * np.dtype(counts).itemsize))
    rng = make_rng(seed)
    violations = 0
    for done in range(0, n_trials, block):
        n = min(block, n_trials - done)
        # each block is transformed in place and released before the next
        # draw, so at most one (n, T) array is alive between draws
        if mds_spec is MdsKind.RADEMACHER:
            # the indices, and the generator state after them, that
            # choice([-1.0, 1.0]) draws
            paths = rng.integers(0, 2, size=(n, T), dtype=counts)
            np.cumsum(paths, axis=1, dtype=counts, out=paths)
            paths *= 2
            paths -= steps
        else:
            paths = rng.uniform(-1.0, 1.0, size=(n, T))
            np.cumsum(paths, axis=1, out=paths)
        np.abs(paths, out=paths)
        violations += _escaped_paths(paths, bound)
        del paths

    return FrequencyReport("lemma1_montecarlo", n_trials, violations, 3.0 * delta)
