"""Seeded trials, multi-seed experiments, quantile curves and rate fits.

A trial is one deterministic optimizer run on one problem: per iteration it
draws a single fresh noise realization, feeds the shared-sample gradient
pair to the optimizer, and records the exact loss and gradient norms.  The
headline metric of a trial is min over t of ||grad F(x_t)||_1.

One engine, :func:`run_cell`, steps S seeded trials as (S, d) states,
each seed drawing from its own stream derived from one master seed, in
chunks whose noise is presampled into one buffer of bounded size.  Its
recorder chooses what is kept beyond each seed's headline and abort:
nothing (the base :class:`Recorder`), the CSV trace columns
(:class:`TraceRecorder`), or the per-coordinate arrays the lemma checks
read (``diagnostics.DiagnosticRecorder``).  An experiment runs one
cell per (optimizer, horizon), reduces it to quantiles of the headline and
fits log-log rates through the medians.  "With probability >= 1 - delta"
is the empirical (1-delta)-quantile over independent seeds.  Reduction is
keyed and ordered, so reports are byte-identical for any worker count.
Given a trace directory, a cell steps parts of its seeds whose columns
hold 2^21 values and writes their CSVs.  The engine is the only loop over t:
:func:`run_trial` is its single-seed call with a :class:`TraceRecorder`.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (ConfigError, DegenerateFit, EmptyInput, InvalidConstant,
                     NonFiniteValue, OutOfRange)
from .optim import (
    STORM_FAMILY,
    GradientPair,
    HyperParams,
    OptimizerKind,
    OptimizerState,
    _check_finite,
    step_batch,
)
from .problems import StochasticProblem, check_params, make_problem
from .rngutil import derive_seed, make_rng
from .theory import TheoremInputs, practical_params, theorem_params

TRACE_HEADER = "t,loss,grad_l1,grad_l2,eps_l1,step_l2"
MAX_TRACE_ROWS = 1_000_000


@dataclass
class TrialTrace:
    """Per-iteration scalars of one seeded run."""

    seed: int
    kind: OptimizerKind
    hp: HyperParams
    t: np.ndarray
    loss: np.ndarray
    grad_l1: np.ndarray
    grad_l2: np.ndarray
    step_l2: np.ndarray
    eps_l1: np.ndarray | None = None
    aborted: bool = False
    abort_reason: str = ""

    @property
    def headline(self) -> float:
        """min over recorded t of ||grad F(x_t)||_1."""
        return float(np.min(self.grad_l1)) if self.grad_l1.size else math.nan


# presampled noise is drawn in blocks of at most this many values per
# buffer; draws are stream-equivalent at any block boundary
_PRESAMPLE_VALUES = 1 << 16
# run_cell steps at most as many seeds together as leave each seed
# min(T, this many) presample rows, so refills stay rare at any S
_MIN_PRESAMPLE_ROWS = 64


def _block_rows(T: int, row_size: int) -> int:
    return max(1, min(T, _PRESAMPLE_VALUES // row_size))


# a traced cell steps parts of seeds whose columns hold at most this many
# values (16 MiB), or one seed where its columns alone are more
_TRACE_VALUES = 1 << 21


class Recorder:
    """What :func:`run_cell` keeps of every seed: the base keeps ``headline``
    (NaN where aborted), ``done`` and ``abort_reasons``, and nothing per step.

    After step t it calls ``record(t, live, state, grads, g_exact, grad_l1,
    loss)`` with the new state (``prev_x`` is x_t), the gradients at x_t
    and F(x_t); row r is seed ``live[r]``.  Then, if a row turned
    non-finite, ``end_aborted(t, live, state, finite)``: its seed ends with
    ``done`` finite steps (aborted if under T) and the error :func:`step`
    would raise.  ``needs_prev`` asks for g_prev for every kind,
    ``needs_loss`` for the loss (else it is None).
    """

    needs_prev = False
    needs_loss = False

    def __init__(self, n_seeds: int, T: int):
        self.T = T
        self.headline = np.full(n_seeds, np.nan)
        self.done = np.full(n_seeds, T)
        self.abort_reasons = [""] * n_seeds

    def record(self, t, live, state, grads, g_exact, grad_l1, loss) -> None:
        pass

    def end_aborted(self, t: int, live: np.ndarray, state: OptimizerState,
                    finite: np.ndarray) -> None:
        for r in np.flatnonzero(~finite):
            s = live[r]
            self.done[s] = t - 1
            try:
                _check_finite(state.x[r], state.m[r], state.v[r])
            except NonFiniteValue as exc:
                self.abort_reasons[s] = str(exc)


class TraceRecorder(Recorder):
    """The trace columns of every seed of one :func:`run_cell` call.

    Each column is an (S, T) array whose row s belongs to seed s, written
    one scalar at a time, which keeps a single seed's steps cheap.  An
    aborted seed's trace stops at its last finite step.
    """

    needs_loss = True

    def __init__(self, n_seeds: int, T: int, collect_diagnostics: bool = False):
        super().__init__(n_seeds, T)
        shape = (n_seeds, T)
        self.loss = np.empty(shape)
        self.grad_l1 = np.empty(shape)
        self.grad_l2 = np.empty(shape)
        self.step_l2 = np.empty(shape)
        self.eps_l1 = np.empty(shape) if collect_diagnostics else None

    def record(self, t, live, state, grads, g_exact, grad_l1, loss) -> None:
        """Columns of x_t and of the step from it."""
        i = t - 1
        diff = state.x - state.prev_x
        # ndarray.dot runs the same kernel as @, so the same bits, in half the time
        for r, s in enumerate(live.tolist()):
            g, move = g_exact[r], diff[r]
            self.loss[s, i] = loss[r]
            self.grad_l1[s, i] = grad_l1[r]
            self.grad_l2[s, i] = math.sqrt(float(g.dot(g)))
            self.step_l2[s, i] = math.sqrt(float(move.dot(move)))
            if self.eps_l1 is not None:
                self.eps_l1[s, i] = np.sum(np.abs(state.m[r] - g))

    def trace(self, s: int, seed: int, kind: OptimizerKind, hp: HyperParams) -> TrialTrace:
        """Seed s's trace; views, not copies."""
        n = int(self.done[s])
        return TrialTrace(
            seed=seed, kind=kind, hp=hp, t=np.arange(1, n + 1),
            loss=self.loss[s, :n], grad_l1=self.grad_l1[s, :n],
            grad_l2=self.grad_l2[s, :n], step_l2=self.step_l2[s, :n],
            eps_l1=self.eps_l1[s, :n] if self.eps_l1 is not None else None,
            aborted=n < self.T, abort_reason=self.abort_reasons[s],
        )


def run_cell(problem: StochasticProblem, kind: OptimizerKind, hp: HyperParams,
             T: int, seeds: list[int], recorder: Recorder | None = None) -> Recorder:
    """S seeded trials stepped as (S, d) states; returns the recorder.

    Row s draws from ``make_rng(seeds[s])`` and follows, bit for bit, the
    trajectory that calling :func:`step` on that seed alone would.  The
    :class:`Recorder`, sized for S seeds and T steps (a base one if none is
    given), receives every step of every seed and keeps its headline and
    abort.  A row that turns non-finite aborts its seed and is dropped.

    Seeds are stepped in chunks, the most that leave each seed min(T, 64)
    rows of one presample buffer of bounded size; rows are independent, so
    chunking changes no bit.  Each step makes one call of each block oracle
    of the problem, which evaluates the block at once or row by row.
    """
    if recorder is None:
        recorder = Recorder(len(seeds), T)
    chunk = max(1, _PRESAMPLE_VALUES // (problem.d * min(T, _MIN_PRESAMPLE_ROWS)))
    for lo in range(0, len(seeds), chunk):
        _run_chunk(problem, kind, hp, T, seeds[lo:lo + chunk], lo, recorder)
    return recorder


def _run_chunk(problem: StochasticProblem, kind: OptimizerKind, hp: HyperParams,
               T: int, seeds: list[int], lo: int, recorder: Recorder) -> None:
    S, d = len(seeds), problem.d
    x0 = OptimizerState.initial(problem.constants.x_init).x
    state = OptimizerState(x=np.tile(x0, (S, 1)), m=np.zeros((S, d)),
                           v=np.zeros((S, d)), prev_x=np.tile(x0, (S, 1)), t=1)
    rngs = [make_rng(seed) for seed in seeds]
    live = np.arange(lo, lo + S)     # recorder row of each state row
    best = np.full(S, np.inf)
    needs_prev = kind in STORM_FAMILY or recorder.needs_prev
    exact_grads = problem.exact_grads
    sampled_grads = problem.sampled_grads

    rows = _block_rows(T, S * d)
    # a zero-row block draws nothing and has the payload rows' shape
    empty = problem.presample_payloads(rngs[0], 0)
    buf = np.empty((rows, S) + empty.shape[1:], empty.dtype)
    block_start = 1 - rows           # step 1 fills the buffer
    g_exact_prev = None
    for t in range(1, T + 1):
        if t - block_start >= rows:
            block_start = t
            n = min(rows, T - t + 1)
            for r, rng in enumerate(rngs):
                buf[:n, r] = problem.presample_payloads(rng, n)
        pay = buf[t - block_start]
        g_exact, loss = exact_grads(state.x, recorder.needs_loss)
        g_curr = sampled_grads(state.x, pay, g_exact)
        g_prev = sampled_grads(state.prev_x, pay, g_exact_prev) if needs_prev and t > 1 else None
        grad_l1 = np.add.reduce(np.abs(g_exact), axis=1)
        best = np.minimum(best, grad_l1)
        grads = GradientPair(g_curr, g_prev)
        state, finite = step_batch(state, grads, hp, kind)
        recorder.record(t, live, state, grads, g_exact, grad_l1, loss)
        if finite is not None:
            recorder.end_aborted(t, live, state, finite)
            live = live[finite]
            rngs = [rng for rng, ok in zip(rngs, finite) if ok]
            state = OptimizerState(x=state.x[finite], m=state.m[finite],
                                   v=state.v[finite], prev_x=state.prev_x[finite],
                                   t=state.t)
            best = best[finite]
            g_exact = g_exact[finite]
            buf = buf[:, finite]
            if live.size == 0:
                break
        g_exact_prev = g_exact
    recorder.headline[live] = best


def run_trial(problem: StochasticProblem, kind: OptimizerKind, hp: HyperParams,
              T: int, seed: int, collect_diagnostics: bool = False) -> TrialTrace:
    """One deterministic trial, the single-seed call of :func:`run_cell`; a
    non-finite update aborts it with a partial trace."""
    recorder = TraceRecorder(1, T, collect_diagnostics)
    run_cell(problem, kind, hp, T, [seed], recorder)
    return recorder.trace(0, seed, kind, hp)


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
        if not (0.0 < self.delta < 1.0):
            raise ConfigError("delta must lie in (0, 1)")
        if self.param_mode not in ("theorem", "practical"):
            raise ConfigError(f"unknown param_mode {self.param_mode!r}")
        if not self.optimizers:
            raise ConfigError("need at least one optimizer")
        # problem parameters of a wrong type or out of range and, in practical
        # mode, the schedule at every horizon fail here, before any cell runs
        try:
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


def _experiment_cell(args) -> tuple[tuple[int, int], Recorder]:
    """A cell's key and recorder; traced, its seeds step in parts under the trace bound."""
    spec, opt_idx, T_idx, trace_dir = args
    problem = spec.build_problem()
    kind = spec.optimizers[opt_idx]
    T = spec.T_grid[T_idx]
    hp = resolve_hyperparams(spec, problem, kind, T)
    seeds = [derive_seed(spec.master_seed, opt_idx, T_idx, seed_idx)
             for seed_idx in range(spec.n_seeds)]
    if trace_dir is None:
        return (opt_idx, T_idx), run_cell(problem, kind, hp, T, seeds)
    os.makedirs(trace_dir, exist_ok=True)
    diag = spec.collect_diagnostics
    part_size = max(1, _TRACE_VALUES // (T * (5 if diag else 4)))
    cell = Recorder(len(seeds), T)
    for lo in range(0, len(seeds), part_size):
        part = seeds[lo:lo + part_size]
        recorder = run_cell(problem, kind, hp, T, part, TraceRecorder(len(part), T, diag))
        for s, seed in enumerate(part):
            write_trace_csv(recorder.trace(s, seed, kind, hp),
                            os.path.join(trace_dir, f"{kind.value}_T{T}_s{lo + s}.csv"))
        for name in ("headline", "done", "abort_reasons"):
            getattr(cell, name)[lo:lo + len(part)] = getattr(recorder, name)
        del recorder  # free this part's columns before the next is allocated
    return (opt_idx, T_idx), cell


def _worker_count() -> int:
    env = os.environ.get("SIGNSTORM_THREADS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(
                f"SIGNSTORM_THREADS must be an integer, got {env!r}") from None
        if workers < 1:
            raise ConfigError(f"SIGNSTORM_THREADS must be at least 1, got {env!r}")
        return workers
    return min(8, os.cpu_count() or 1)


@dataclass
class ExperimentReport:
    """Reduced experiment results; serializes to the canonical report JSON."""

    config: dict
    master_seed: int
    cells: list[dict]
    rate_fits: dict
    violations: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "config": self.config,
            "master_seed": self.master_seed,
            "cells": self.cells,
            "rate_fits": self.rate_fits,
            "violations": self.violations,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "ExperimentReport":
        doc = json.loads(text)
        return ExperimentReport(doc["config"], doc["master_seed"], doc["cells"],
                                doc["rate_fits"], doc.get("violations", {}))


def run_experiment(spec: ExperimentSpec, max_workers: int | None = None,
                   trace_dir: str | None = None) -> ExperimentReport:
    """Run the full (optimizer, T, seed) grid and reduce to a report.

    One task per (optimizer, T) cell, longest horizon first so the pool's
    tail stays short.  The result is independent of worker count and
    scheduling: each trial's seed is a pure function of its indices and
    reduction iterates cells in config order.  With ``trace_dir``, every
    cell task also writes its seeds' CSV traces there, as
    ``<optimizer>_T<T>_s<seed index>.csv``, creating the directory.
    """
    tasks = sorted(((spec, oi, ti, trace_dir)
                    for oi in range(len(spec.optimizers))
                    for ti in range(len(spec.T_grid))),
                   key=lambda task: -spec.T_grid[task[2]])
    workers = max_workers if max_workers is not None else _worker_count()

    if workers <= 1 or len(tasks) == 1:
        results = dict(map(_experiment_cell, tasks))
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = dict(pool.map(_experiment_cell, tasks))

    levels = {"0.5": 0.5, "0.9": 0.9, "1-delta": 1.0 - spec.delta}
    cells = []
    medians: dict[str, list[tuple[int, float]]] = {k.value: [] for k in spec.optimizers}
    nonfinite = 0
    for oi, kind in enumerate(spec.optimizers):
        for ti, T in enumerate(spec.T_grid):
            vals = [float(h) for h in results[oi, ti].headline if math.isfinite(h)]
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
    """CSV trace (UTF-8, LF endings); long runs are strided, metrics are not."""
    stride = trace_stride(trace.t.size)
    lines = [TRACE_HEADER]
    eps = trace.eps_l1
    for i in range(0, trace.t.size, stride):
        eps_field = repr(float(eps[i])) if eps is not None else ""
        lines.append(",".join([
            str(int(trace.t[i])), repr(float(trace.loss[i])),
            repr(float(trace.grad_l1[i])), repr(float(trace.grad_l2[i])),
            eps_field, repr(float(trace.step_l2[i])),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
