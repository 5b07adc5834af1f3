"""Seeded trials, multi-seed experiments, quantile curves and rate fits.

A trial is one deterministic optimizer run on one problem: per iteration it
draws a single fresh noise realization, feeds the shared-sample gradient
pair to the optimizer, and records the exact loss and gradient norms.  The
headline metric of a trial is min over t of ||grad F(x_t)||_1.

One engine, :func:`run_cell`, steps S seeded trials as (S, d) states,
each seed drawing from its own stream derived from one master seed and
running to its own horizon with its own hyperparameters, in chunks whose
noise is presampled into one buffer of bounded size, and yields each
chunk with its recorder, so a caller holds one chunk at a time.  The
recorder chooses what is kept beyond each seed's headline and abort:
nothing (the base :class:`Recorder`), the CSV trace columns
(:class:`TraceRecorder`), or the per-coordinate arrays the lemma checks
read (``diagnostics.DiagnosticRun``).  An experiment runs one task per
optimizer, which steps that optimizer's seeds at every horizon together
(split into seed ranges when there are fewer optimizers than workers),
reduces each (optimizer, horizon) cell to quantiles of the headline and
fits log-log rates through the medians.  "With probability >= 1 - delta"
is the empirical (1-delta)-quantile over independent seeds.  Reduction is
keyed and ordered, so reports are byte-identical for any worker count.
Given a trace directory, a task writes each chunk's CSVs.  The engine is
the only loop over t: :func:`run_trial` is its single-seed call with a
:class:`TraceRecorder`, and a trace's headline is the recorder's.  Every
output file is written by :func:`write_text` (UTF-8, LF endings), and
every JSON file is laid out by :func:`canonical_json`.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import (ConfigError, DegenerateFit, EmptyInput, InvalidConstant,
                     NonFiniteValue, OutOfRange)
from .optim import (
    STORM_FAMILY,
    GradientPair,
    HyperParams,
    OptimizerKind,
    OptimizerState,
    StepWork,
    _advance,
    _check_finite,
    _finite_rows,
    _row_norms,
)
from .problems import StochasticProblem, check_params, make_problem, unallocatable
from .rngutil import derive_seed, make_rng
from .theory import TheoremInputs, practical_params, theorem_params

# the trace CSV's columns in file order, each a TrialTrace field
TRACE_COLUMNS = ("t", "loss", "grad_l1", "grad_l2", "eps_l1", "step_l2")
TRACE_HEADER = ",".join(TRACE_COLUMNS)
MAX_TRACE_ROWS = 1_000_000


@dataclass
class TrialTrace:
    """Per-iteration scalars of one seeded run, and its headline as the
    engine's :class:`Recorder` keeps it: NaN where the run aborted."""

    t: np.ndarray
    loss: np.ndarray
    grad_l1: np.ndarray
    grad_l2: np.ndarray
    step_l2: np.ndarray
    headline: float
    eps_l1: np.ndarray | None = None
    aborted: bool = False
    abort_reason: str = ""


# presampled noise is drawn in blocks of at most this many values per
# buffer; draws are stream-equivalent at any block boundary
_PRESAMPLE_VALUES = 1 << 16
# run_cell steps at most as many seeds together as leave each seed
# min(T, this many) presample rows, so refills stay rare at any S
_MIN_PRESAMPLE_ROWS = 64
# a recorder keeps horizons as int64
MAX_HORIZON = (1 << 63) - 1
# about what an experiment task keeps per (horizon, seed) row: its lists
# of rows, seeds, horizons and hyperparameters, and its headline
_ROW_BYTES = 256


class Recorder:
    """What a :func:`run_cell` chunk keeps of each seed: the base keeps
    ``headline`` (NaN where aborted), ``done`` and ``abort_reasons``, and
    nothing per step.

    ``T`` is one horizon for every seed offered or one per seed, longest
    first.  A subclass may keep only the first of those seeds; the kept
    seeds' horizons are ``horizon``, where ``done`` starts.  After step t it calls
    ``record(t, live, state, grads, g_exact, grad_l1, loss)`` with the
    stepped state (``x`` is x_{t+1}, ``prev_x`` is x_t, ``t`` is t + 1),
    the gradients at x_t and F(x_t); ``g_prev``, the same sample's gradient
    at x_{t-1}, is None at t = 1 and, unless ``needs_prev``, for kinds
    outside the STORM family, which do not compute it; row r
    is the recorder's row ``live[r]``, and ``live`` is a slice while those
    rows are contiguous, else an index array.  The engine overwrites the
    arrays it passes on the next step, so a recorder copies what it keeps.
    Then a seed whose row turned non-finite ends,
    aborted, with ``done`` = t - 1 and the error :func:`step` would raise,
    and a seed that reached its horizon gets its headline.  ``needs_prev``
    asks for g_prev for every kind, ``needs_loss`` for the loss (else it
    is None).
    """

    needs_prev = False
    needs_loss = False

    def __init__(self, n_seeds: int, T):
        self.horizon = np.broadcast_to(np.asarray(T, dtype=np.int64), (n_seeds,)).copy()
        self.headline = np.full(n_seeds, np.nan)
        self.done = self.horizon.copy()
        self.abort_reasons = [""] * n_seeds

    def record(self, t, live, state, grads, g_exact, grad_l1, loss) -> None:
        pass


class TraceRecorder(Recorder):
    """The trace columns of the seeds of one :func:`run_cell` chunk.

    Each column is an (S, max T) array whose row s belongs to seed s,
    written for every live seed at once.  It keeps the seeds whose columns
    hold at most ``max_values`` values (16 MiB), or one seed where its own
    are more.  A seed's trace stops at its horizon, or at its last finite
    step if it aborted.
    """

    needs_loss = True
    max_values = 1 << 21

    def __init__(self, n_seeds: int, T, collect_diagnostics: bool = False):
        T = np.broadcast_to(np.asarray(T, dtype=np.int64), (n_seeds,))
        columns = 5 if collect_diagnostics else 4
        n_seeds = min(n_seeds, max(1, self.max_values // (columns * int(T.max(initial=1)))))
        super().__init__(n_seeds, T[:n_seeds])
        shape = (n_seeds, int(self.horizon.max(initial=0)))
        self.loss = np.empty(shape)
        self.grad_l1 = np.empty(shape)
        self.grad_l2 = np.empty(shape)
        self.step_l2 = np.empty(shape)
        self.eps_l1 = np.empty(shape) if collect_diagnostics else None

    def record(self, t, live, state, grads, g_exact, grad_l1, loss) -> None:
        """Columns of x_t and of the step from it."""
        i = t - 1
        self.loss[live, i] = loss
        self.grad_l1[live, i] = grad_l1
        if self.eps_l1 is not None:
            # an axis-1 reduce sums each row as np.sum sums it alone
            self.eps_l1[live, i] = np.add.reduce(np.abs(state.m - g_exact), axis=1)
        self.grad_l2[live, i] = _row_norms(g_exact)[:, 0]
        self.step_l2[live, i] = _row_norms(state.x - state.prev_x)[:, 0]

    def trace(self, s: int) -> TrialTrace:
        """Seed s's trace; views, not copies."""
        n = int(self.done[s])
        return TrialTrace(
            t=np.arange(1, n + 1), loss=self.loss[s, :n], grad_l1=self.grad_l1[s, :n],
            grad_l2=self.grad_l2[s, :n], step_l2=self.step_l2[s, :n],
            headline=float(self.headline[s]),
            eps_l1=self.eps_l1[s, :n] if self.eps_l1 is not None else None,
            aborted=bool(n < self.horizon[s]), abort_reason=self.abort_reasons[s],
        )


class _RowParams:
    """The hyperparameters of a chunk's rows, read by ``_advance`` as it
    reads a :class:`HyperParams`: each of eta, beta1 and beta2 is the
    rows' common value where all agree bit for bit (so Adam's ``beta **
    t`` stays a scalar power) and an (S, d) array of row values otherwise,
    several times faster in a product than a broadcast (S, 1) column."""

    __slots__ = ("eta", "beta1", "beta2", "eps_guard", "schedule")
    step_size = HyperParams.step_size

    def __init__(self, hps: list[HyperParams], d: int):
        first = hps[0]
        for name in ("schedule", "eps_guard"):
            if any(getattr(hp, name) != getattr(first, name) for hp in hps):
                raise ValueError(f"the rows of one run_cell call must share {name}")
        self.schedule, self.eps_guard = first.schedule, first.eps_guard
        for name in ("eta", "beta1", "beta2"):
            vals = [getattr(hp, name) for hp in hps]
            # hex tells -0.0 from 0.0
            if len({float(v).hex() for v in vals}) > 1:
                setattr(self, name, np.repeat(np.array(vals, dtype=np.float64)[:, None], d, 1))
            else:
                setattr(self, name, getattr(first, name))


def _per_seed(value, n_seeds: int, single) -> list:
    if isinstance(value, single):
        return [value] * n_seeds
    value = list(value)
    if len(value) != n_seeds:
        raise ValueError(f"got {len(value)} per-seed values for {n_seeds} seeds")
    return value


def run_cell(problem: StochasticProblem, kind: OptimizerKind, hp, T, seeds: list[int],
             recorder: Callable[[int, np.ndarray], Recorder] = Recorder,
             ) -> Iterator[tuple[np.ndarray, Recorder]]:
    """S seeded trials stepped as (S, d) states, yielded chunk by chunk.

    ``hp`` and ``T`` are one :class:`HyperParams` and one horizon (at
    least 1) for every seed, or one per seed; all seeds must share the
    schedule and ``eps_guard``.  Row s draws from ``make_rng(seeds[s])``
    and follows, bit for bit, the trajectory that calling :func:`step` on
    that seed alone would for its own horizon.  Each chunk's
    :class:`Recorder` is ``recorder(n_seeds, horizons)``; it receives every
    step of the chunk's seeds and keeps their headlines and aborts.  Yields
    each stepped chunk as ``(rows, recorder)``, recorder row r being
    ``seeds[rows[r]]``, and drops it before stepping the next.

    Rows are ordered by descending horizon.  A row leaves after the step
    where it turns non-finite, aborting its seed, or reaches its horizon,
    its headline written.  A chunk is offered the most seeds that leave
    each seed min(max T, 64) payload rows of one presample buffer of
    bounded size, and holds those its recorder keeps; rows are
    independent, so order and chunking change no bit.  Each step makes one
    call of each block oracle of the problem, which evaluates the block at
    once or row by row.
    """
    S = len(seeds)
    horizons = _per_seed(T, S, (int, np.integer))
    hps = _per_seed(hp, S, HyperParams)
    if min(horizons, default=1) < 1:
        raise ValueError(f"every horizon must be at least 1, got {min(horizons)}")
    if S == 0:
        return
    # a zero-row block draws nothing and has the payload rows' shape
    empty = problem.presample_payloads(make_rng(seeds[0]), 0)
    row_size = math.prod(empty.shape[1:])
    order = np.array(sorted(range(S), key=lambda s: -horizons[s]))
    ends = np.array(horizons, dtype=np.int64)[order]
    chunk = max(1, _PRESAMPLE_VALUES // (row_size * min(int(ends[0]), _MIN_PRESAMPLE_ROWS)))
    lo = 0
    while lo < S:
        kept = recorder(min(chunk, S - lo), ends[lo:lo + chunk])
        rows = order[lo:lo + len(kept.horizon)]
        _run_chunk(problem, kind, [hps[s] for s in rows], [seeds[s] for s in rows], kept, empty)
        lo += rows.size
        yield rows, kept
        del kept  # freed, once the caller drops it, before the next chunk is made


def _run_chunk(problem: StochasticProblem, kind: OptimizerKind, hps: list[HyperParams],
               seeds: list[int], recorder: Recorder, empty: np.ndarray) -> None:
    """Seeds ``seeds``, the recorder's rows, in descending horizon order;
    the (S, d) arrays are made when rows join or leave, and ``_advance``
    steps them in place."""
    S = len(seeds)
    ends, live = recorder.horizon, np.arange(S)
    x = np.tile(OptimizerState.initial(problem.constants.x_init).x, (S, 1))
    state = OptimizerState(x=x, m=np.zeros_like(x), v=np.zeros_like(x),
                           prev_x=np.empty_like(x), t=1)
    g_exact_prev, work = np.empty_like(x), None
    rngs = [make_rng(seed) for seed in seeds]
    best = np.full(S, np.inf)
    needs_prev = kind in STORM_FAMILY or recorder.needs_prev
    exact_grads = problem.exact_grads
    sampled_grads = problem.sampled_grads

    T = int(ends[0])
    rows = max(1, min(T, _PRESAMPLE_VALUES // (S * math.prod(empty.shape[1:]))))
    buf = np.empty((rows, S) + empty.shape[1:], empty.dtype)
    block_start = 1 - rows           # step 1 fills the buffer
    for t in range(1, T + 1):
        if work is None:
            shape = state.x.shape
            params, work, grad_l1 = _RowParams(hps, shape[1]), StepWork(shape), np.empty(shape[0])
            g_exact, g_curr, g_prev = np.empty(shape), np.empty(shape), np.empty(shape)
            first, pair = GradientPair(g_curr), GradientPair(g_curr, g_prev)
            # a slice writes a recorder's rows faster than the index array
            at = slice(live[0], live[-1] + 1) if np.all(np.diff(live) == 1) else live
        if t - block_start >= rows:
            block_start = t
            for r, (rng, end) in enumerate(zip(rngs, ends.tolist())):
                n = min(rows, end - t + 1)
                buf[:n, r] = problem.presample_payloads(rng, n)
        pay = buf[t - block_start]
        _, loss = exact_grads(state.x, recorder.needs_loss, g_exact)
        sampled_grads(state.x, pay, g_exact, g_curr)
        if needs_prev and t > 1:
            sampled_grads(state.prev_x, pay, g_exact_prev, g_prev)
        np.add.reduce(np.abs(g_exact, out=work.ratio), axis=1, out=grad_l1)
        np.minimum(best, grad_l1, out=best)
        grads = pair if needs_prev and t > 1 else first
        # the new x is written over prev_x's buffer, and the two swap
        _advance(state.x, state.m, state.v, t, grads, params, kind, state.prev_x, work)
        state.x, state.prev_x, state.t = state.prev_x, state.x, t + 1
        finite = _finite_rows(state.x, state.m, state.v, work.ratio)
        recorder.record(t, at, state, grads, g_exact, grad_l1, loss)
        g_exact, g_exact_prev = g_exact_prev, g_exact
        # rows run in descending horizon order, so the last row ends first
        if finite is None and ends[-1] > t:
            continue
        # the one exit: a non-finite row aborts its seed, and a finite row
        # whose horizon is t keeps its headline; both leave
        if finite is None:
            finite = np.ones(ends.size, dtype=bool)
        for r in np.flatnonzero(~finite):
            s = live[r]
            recorder.done[s] = t - 1
            try:
                _check_finite(state.x[r], state.m[r], state.v[r])
            except NonFiniteValue as exc:
                recorder.abort_reasons[s] = str(exc)
        ended = finite & (ends == t)
        recorder.headline[live[ended]] = best[ended]
        keep = finite & (ends > t)
        if not keep.any():
            break
        hps = [hp for hp, ok in zip(hps, keep) if ok]
        rngs = [rng for rng, ok in zip(rngs, keep) if ok]
        state = OptimizerState(x=state.x[keep], m=state.m[keep], v=state.v[keep],
                               prev_x=state.prev_x[keep], t=state.t)
        live, best, ends, g_exact_prev, buf = (live[keep], best[keep], ends[keep],
                                               g_exact_prev[keep], buf[:, keep])
        # freed before the buffers of the rows left are made
        work = g_exact = g_curr = g_prev = grad_l1 = first = pair = None


def run_trial(problem: StochasticProblem, kind: OptimizerKind, hp: HyperParams,
              T: int, seed: int, collect_diagnostics: bool = False) -> TrialTrace:
    """One deterministic trial, the single-seed call of :func:`run_cell`; a
    non-finite update aborts it with a partial trace."""
    [(_, recorder)] = run_cell(problem, kind, hp, T, [seed], lambda n_seeds, horizons:
                               TraceRecorder(n_seeds, horizons, collect_diagnostics))
    return recorder.trace(0)


def quantile(samples, level: float) -> float:
    """Empirical quantile with the lower-interpolation rule ceil(level*n) - 1."""
    arr = np.sort(np.asarray(samples, dtype=np.float64))
    if arr.size == 0:
        raise EmptyInput("quantile of zero samples")
    if not (0.0 <= level <= 1.0):
        raise OutOfRange(f"quantile level must lie in [0, 1], got {level}")
    idx = min(max(math.ceil(level * arr.size) - 1, 0), arr.size - 1)
    return float(arr[idx])


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r2: float
    n_points: int


def fit_rate(points) -> RateFit:
    """Ordinary least squares of log(metric) on log(T)."""
    pts = [(float(T), float(m)) for T, m in points]
    if len(pts) < 3:
        raise DegenerateFit(f"rate fit needs >= 3 points, got {len(pts)}")
    if any(m <= 0 or not math.isfinite(m) for _, m in pts):
        raise DegenerateFit("rate fit needs strictly positive finite metrics")
    x = np.log([T for T, _ in pts])
    y = np.log([m for _, m in pts])
    xbar, ybar = x.mean(), y.mean()
    var = np.sum((x - xbar) ** 2)
    if var == 0.0:
        raise DegenerateFit("rate fit needs at least two distinct horizons")
    slope = float(np.sum((x - xbar) * (y - ybar)) / var)
    intercept = float(ybar - slope * xbar)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - ybar) ** 2))
    ss_res = float(np.sum(resid ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope, intercept, r2, len(pts))


@dataclass
class ExperimentSpec:
    """Everything an experiment needs, with the problem given as name + params."""

    problem_name: str
    problem_params: dict
    optimizers: list[OptimizerKind]
    T_grid: list[int]
    n_seeds: int
    delta: float
    param_mode: str = "theorem"      # "theorem" | "practical"
    master_seed: int = 0
    beta2: float = 0.0
    alpha: float = 1.0               # practical mode scale
    beta: float = 1.0                # practical mode momentum knob
    per_step: bool = False           # practical mode: divide by sqrt(t)
    collect_diagnostics: bool = False

    def __post_init__(self) -> None:
        if self.n_seeds < 1:
            raise ConfigError("n_seeds must be >= 1")
        if not self.T_grid or any(b <= a for a, b in zip(self.T_grid, self.T_grid[1:])):
            raise ConfigError("T_grid must be non-empty and strictly increasing")
        if self.T_grid[-1] > MAX_HORIZON:
            raise ConfigError(f"T_grid horizons must be at most {MAX_HORIZON}, "
                              f"got {self.T_grid[-1]}")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError("delta must lie in (0, 1)")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed must be from 0 to 2**64 - 1, the 64 bits that "
                              f"seeds are derived from, got {self.master_seed!r}")
        if self.param_mode not in ("theorem", "practical"):
            raise ConfigError(f"unknown param_mode {self.param_mode!r}")
        if not self.optimizers:
            raise ConfigError("need at least one optimizer")
        # a report keys its cells, fits and trace files by optimizer name
        repeated = [k.value for i, k in enumerate(self.optimizers) if k in self.optimizers[:i]]
        if repeated:
            raise ConfigError(f"optimizers lists {repeated[0]!r} more than once")
        # a seed count whose rows cannot be allocated (the probe touches no
        # page), problem parameters of a wrong type or out of range and, in
        # practical mode, the schedule at every horizon fail here, before
        # any cell runs
        try:
            with unallocatable(f"n_seeds = {self.n_seeds}: the per-seed rows of "
                               f"{len(self.T_grid)} horizons are too large to allocate"):
                np.empty((len(self.T_grid) * self.n_seeds, _ROW_BYTES), dtype=np.uint8)
            check_params(self.problem_params)
            for T in self.T_grid if self.param_mode == "practical" else ():
                practical_params(self.alpha, self.beta, T, beta2=self.beta2, per_step=self.per_step)
        except InvalidConstant as exc:
            raise ConfigError(str(exc)) from None

    def build_problem(self) -> StochasticProblem:
        return make_problem(self.problem_name, self.problem_params)

    def config_fingerprint(self) -> dict:
        """The report's ``config``: every field but ``master_seed`` (a report
        key of its own), the problem nested and the optimizers by value."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "master_seed"}
        doc["problem"] = {"name": doc.pop("problem_name"), "params": doc.pop("problem_params")}
        doc["optimizers"] = [k.value for k in self.optimizers]
        return doc


def resolve_hyperparams(spec: ExperimentSpec, problem: StochasticProblem,
                        kind: OptimizerKind, T: int) -> HyperParams:
    """Pick hyperparameters for one cell.

    Theorem mode feeds the problem's declared constants into the tuned
    formulas (a zero gap delta_upper * ||L||_1 is a ConfigError); practical
    mode uses the (alpha, beta) schedule.  Every optimizer in a run shares
    that choice except Adam, which keeps its standard (0.9, 0.999, 1e-8)
    configuration at the same step size so the baseline stays the stock method.
    """
    consts = problem.constants
    if spec.param_mode == "theorem":
        if consts.delta_upper * consts.L1_norm == 0.0:
            raise ConfigError("theorem mode needs a positive gap delta_upper * ||L||_1; "
                              "move problem.params.x_init off the minimizer or set "
                              '"param_mode": "practical"')
        hp = theorem_params(TheoremInputs(
            delta=consts.delta_upper, L1_norm=consts.L1_norm,
            sigma1_norm=consts.sigma1_norm, T=T, beta2=spec.beta2,
            confidence_delta=spec.delta, d=problem.d))
    else:
        hp = practical_params(spec.alpha, spec.beta, T, beta2=spec.beta2,
                              per_step=spec.per_step)
    if kind is OptimizerKind.ADAM:
        return HyperParams.adam_defaults(hp.eta)
    return hp


def _experiment_task(args) -> tuple[tuple[int, int], np.ndarray]:
    """One optimizer's seeds lo..hi-1 at every horizon of the grid, stepped
    by one :func:`run_cell` call, and, given a trace directory, each chunk's
    CSVs.  Returns ((optimizer index, lo), headlines), row ti of which
    holds horizon ti's seeds in seed order."""
    spec, oi, lo, hi, trace_dir = args
    problem = spec.build_problem()
    kind = spec.optimizers[oi]
    hps = [resolve_hyperparams(spec, problem, kind, T) for T in spec.T_grid]
    cells = [(ti, si) for ti in range(len(spec.T_grid)) for si in range(lo, hi)]
    seeds = [derive_seed(spec.master_seed, oi, ti, si) for ti, si in cells]

    def traced(n_seeds, horizons):
        with unallocatable(f"T_grid = {spec.T_grid}: the traces of the T = "
                           f"{horizons[0]} runs are too large to allocate"):
            return TraceRecorder(n_seeds, horizons, spec.collect_diagnostics)

    headline = np.empty(len(cells))
    for rows, recorder in run_cell(problem, kind, [hps[ti] for ti, _ in cells],
                                   [spec.T_grid[ti] for ti, _ in cells], seeds,
                                   Recorder if trace_dir is None else traced):
        headline[rows] = recorder.headline
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            for r, i in enumerate(rows.tolist()):
                ti, si = cells[i]
                write_trace_csv(recorder.trace(r), os.path.join(
                    trace_dir, f"{kind.value}_T{spec.T_grid[ti]}_s{si}.csv"))
        del recorder  # free this chunk's columns before the next is stepped
    return (oi, lo), headline.reshape(len(spec.T_grid), -1)


def _worker_count() -> int:
    # the CPUs this process may run on, which a cpuset or affinity mask
    # can make fewer than the host's; a pool starts every worker at once,
    # so SIGNSTORM_THREADS is capped there too
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    env = os.environ.get("SIGNSTORM_THREADS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(
                f"SIGNSTORM_THREADS must be an integer, got {env!r}") from None
        if workers < 1:
            raise ConfigError(f"SIGNSTORM_THREADS must be at least 1, got {env!r}")
        return min(workers, cpus)
    return min(8, cpus)


@dataclass
class ExperimentReport:
    """Reduced experiment results; serializes to the canonical report JSON."""

    config: dict
    master_seed: int
    cells: list[dict]
    rate_fits: dict
    violations: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return canonical_json(asdict(self))

    @staticmethod
    def from_json(text: str) -> "ExperimentReport":
        doc = json.loads(text)
        return ExperimentReport(doc["config"], doc["master_seed"], doc["cells"],
                                doc["rate_fits"], doc.get("violations", {}))


def run_experiment(spec: ExperimentSpec, max_workers: int | None = None,
                   trace_dir: str | None = None) -> ExperimentReport:
    """Run the full (optimizer, T, seed) grid and reduce to a report.

    One task per optimizer steps its seeds at every horizon together.
    With fewer optimizers than workers, each optimizer's seeds are split
    into ceil(workers / optimizers) seed-range tasks, so the pool stays
    busy.  The result is independent of worker count and scheduling: each
    trial's seed is a pure function of its indices, and reduction iterates
    cells in config order and each cell's seed ranges in seed order.  With
    ``trace_dir``, every task also writes its seeds' CSV traces there, as
    ``<optimizer>_T<T>_s<seed index>.csv``, creating the directory.
    """
    workers = max_workers if max_workers is not None else _worker_count()
    n_opt = len(spec.optimizers)
    n_ranges = min(spec.n_seeds, -(-workers // n_opt)) if n_opt < workers else 1
    bounds = [spec.n_seeds * k // n_ranges for k in range(n_ranges + 1)]
    tasks = [(spec, oi, lo, hi, trace_dir)
             for oi in range(n_opt) for lo, hi in zip(bounds, bounds[1:])]

    if workers <= 1 or len(tasks) == 1:
        parts = map(_experiment_task, tasks)
    else:
        # imported here, so that commands that start no pool skip its modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            parts = list(pool.map(_experiment_task, tasks))
    headlines = dict(parts)

    levels = {"0.5": 0.5, "0.9": 0.9, "1-delta": 1.0 - spec.delta}
    cells = []
    medians: dict[str, list[tuple[int, float]]] = {k.value: [] for k in spec.optimizers}
    nonfinite = 0
    for oi, kind in enumerate(spec.optimizers):
        for ti, T in enumerate(spec.T_grid):
            vals = [float(h) for lo in bounds[:-1]
                    for h in headlines[oi, lo][ti] if math.isfinite(h)]
            n_fail = spec.n_seeds - len(vals)
            nonfinite += n_fail
            qs = {name: quantile(vals, lv) if vals else None
                  for name, lv in levels.items()}
            cells.append({"optimizer": kind.value, "T": T, "quantiles": qs,
                          "n_fail": n_fail})
            if vals:
                medians[kind.value].append((T, qs["0.5"]))

    rate_fits = {}
    for kind_name, pts in medians.items():
        if len(pts) >= 3 and all(m > 0 for _, m in pts):
            fit = fit_rate(pts)
            rate_fits[kind_name] = {"slope": fit.slope, "intercept": fit.intercept,
                                    "r2": fit.r2, "n_points": fit.n_points}

    return ExperimentReport(
        config=spec.config_fingerprint(),
        master_seed=spec.master_seed,
        cells=cells,
        rate_fits=rate_fits,
        violations={"nonfinite_aborts": nonfinite},
    )


def trace_stride(T: int) -> int:
    """Fixed downsampling stride keeping stored traces at or under MAX_TRACE_ROWS."""
    return max(1, math.ceil(T / MAX_TRACE_ROWS))


def write_trace_csv(trace: TrialTrace, path: str) -> None:
    """CSV trace in ``TRACE_COLUMNS`` order; long runs are strided, metrics are not."""
    stride = trace_stride(trace.t.size)
    t = trace.t[::stride].tolist()
    # tolist() gives Python floats, whose repr is that of float(x)
    cols = [map(repr, col[::stride].tolist()) if col is not None else [""] * len(t)
            for col in (getattr(trace, name) for name in TRACE_COLUMNS[1:])]
    lines = [TRACE_HEADER, *map(",".join, zip(map(str, t), *cols))]
    write_text(path, "\n".join(lines) + "\n")


def canonical_json(doc) -> str:
    """The layout of every JSON file written: sorted keys, indent 2, a final LF."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_text(path: str, text: str) -> None:
    """The one writer of every output file: UTF-8, LF endings on any platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
