"""Seeded trials, multi-seed experiments, quantile curves and rate fits.

A trial is one deterministic optimizer run on one problem: per iteration it
draws a single fresh noise realization, feeds the shared-sample gradient
pair to the optimizer, and records the exact loss and gradient norms.  The
headline metric of a trial is min over t of ||grad F(x_t)||_1.

An experiment splits its work per (optimizer, horizon) cell: one task
builds the problem once and steps all the cell's seeds together as one
(S, d) state (:func:`run_cell`), each seed still drawing from its own
stream derived from one master seed.  Additive noise is presampled per
seed into one buffer of bounded size.  Each cell is reduced to quantiles
of the headline metric, and log-log rates are fitted through the medians.
"With probability >= 1 - delta" is operationalized as the empirical
(1-delta)-quantile over independent seeds.  Reduction is keyed and ordered,
so reports are byte-identical for any worker count.

CSV traces come from the experiment run itself: given a trace directory,
each cell task records every seed's trace columns with a
:class:`TraceRecorder` and writes its own CSVs.  The recorded columns of
a cell are bounded in size by stepping its seeds in chunks.
:func:`run_trial` runs one seed alone with its full trace; it is the
library's single-seed call and the reference the batched engine is tested
against.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateFit, EmptyInput, NonFiniteValue, OutOfRange
from .optim import (
    STORM_FAMILY,
    GradientPair,
    HyperParams,
    OptimizerKind,
    OptimizerState,
    _check_finite,
    step,
    step_batch,
)
from .problems import StochasticProblem, make_problem
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


def _block_rows(T: int, row_size: int) -> int:
    return max(1, min(T, _PRESAMPLE_VALUES // row_size))


# the trace columns recorded in one run_cell call hold at most this many
# values (16 MiB), or one seed's columns where those alone are larger
_TRACE_VALUES = 1 << 21


def run_trial(problem: StochasticProblem, kind: OptimizerKind, hp: HyperParams,
              T: int, seed: int, collect_diagnostics: bool = False,
              record_metrics: bool = True) -> TrialTrace:
    """One deterministic trial; a non-finite update aborts with a partial trace.

    Additive-noise problems let the trial presample noise in blocks, which
    draws the identical stream as per-iteration sampling but far cheaper.
    ``record_metrics=False`` skips the loss/gradient-norm columns (they come
    back empty and the headline is NaN) while leaving the trajectory, the
    noise stream and the step-norm column untouched.
    """
    rng = make_rng(seed)
    state = OptimizerState.initial(problem.constants.x_init)
    needs_prev = kind in STORM_FAMILY
    loss = np.empty(T if record_metrics else 0)
    grad_l1 = np.empty(T if record_metrics else 0)
    grad_l2 = np.empty(T if record_metrics else 0)
    step_l2 = np.empty(T)
    eps_l1 = np.empty(T) if collect_diagnostics else None
    exact_grad = problem.exact_grad
    value = problem.value

    rows = _block_rows(T, problem.d)
    payloads = problem.presample_payloads(rng, rows)
    additive = payloads is not None
    block_start = 1
    g_exact_prev = None
    done = 0
    reason = ""
    for t in range(1, T + 1):
        if additive:
            if t - block_start >= payloads.shape[0]:
                block_start = t
                payloads = problem.presample_payloads(rng, min(rows, T - t + 1))
            pay = payloads[t - block_start]
            g_exact = exact_grad(state.x)
            g_curr = g_exact + pay
            g_prev = g_exact_prev + pay if needs_prev and t > 1 else None
        else:
            noise = problem.draw_noise(rng)
            g_curr = problem.stoch_grad(state.x, noise)
            g_prev = problem.stoch_grad(state.prev_x, noise) if needs_prev and t > 1 else None
            g_exact = exact_grad(state.x) if record_metrics or collect_diagnostics else None
        if record_metrics:
            loss[t - 1] = value(state.x)
            grad_l1[t - 1] = np.add.reduce(np.abs(g_exact))
            grad_l2[t - 1] = math.sqrt(float(g_exact @ g_exact))
        try:
            new_state = step(state, GradientPair(g_curr, g_prev), hp, kind)
        except NonFiniteValue as exc:
            reason = str(exc)
            break
        diff = new_state.x - state.x
        step_l2[t - 1] = math.sqrt(float(diff @ diff))
        if collect_diagnostics:
            eps_l1[t - 1] = np.sum(np.abs(new_state.m - g_exact))
        g_exact_prev = g_exact
        state = new_state
        done = t

    n = done if record_metrics else 0
    return TrialTrace(
        seed=seed, kind=kind, hp=hp,
        t=np.arange(1, done + 1),
        loss=loss[:n], grad_l1=grad_l1[:n], grad_l2=grad_l2[:n],
        step_l2=step_l2[:done],
        eps_l1=eps_l1[:done] if collect_diagnostics else None,
        aborted=done < T, abort_reason=reason,
    )


class TraceRecorder:
    """The trace columns of every seed of one :func:`run_cell` call.

    Each column is an (S, T) array whose row s belongs to seed s.  Every
    value is computed with the same call :func:`run_trial` makes, so the
    recorded traces equal its traces bit for bit, and an aborted seed's
    trace stops at its last finite step.
    """

    def __init__(self, n_seeds: int, T: int, collect_diagnostics: bool = False):
        shape = (n_seeds, T)
        self.T = T
        self.loss = np.empty(shape)
        self.grad_l1 = np.empty(shape)
        self.grad_l2 = np.empty(shape)
        self.step_l2 = np.empty(shape)
        self.eps_l1 = np.empty(shape) if collect_diagnostics else None
        self.done = np.full(n_seeds, T)
        self.abort_reasons = [""] * n_seeds

    def record_point(self, t: int, live: np.ndarray, x: np.ndarray,
                     g_exact: np.ndarray, grad_l1: np.ndarray, value) -> None:
        """Columns of x_t, taken before the step; row r of x is seed live[r]."""
        self.grad_l1[live, t - 1] = grad_l1
        for r, s in enumerate(live):
            g = g_exact[r]
            self.loss[s, t - 1] = value(x[r])
            self.grad_l2[s, t - 1] = math.sqrt(float(g @ g))

    def record_step(self, t: int, live: np.ndarray, state: OptimizerState,
                    g_exact: np.ndarray, finite: np.ndarray | None) -> None:
        """Columns of the step from x_t; a non-finite row ends its seed's trace."""
        diff = state.x - state.prev_x
        for r, s in enumerate(live):
            if finite is not None and not finite[r]:
                self.done[s] = t - 1
                try:
                    _check_finite(state.x[r], state.m[r], state.v[r])
                except NonFiniteValue as exc:
                    self.abort_reasons[s] = str(exc)
                continue
            self.step_l2[s, t - 1] = math.sqrt(float(diff[r] @ diff[r]))
            if self.eps_l1 is not None:
                self.eps_l1[s, t - 1] = np.sum(np.abs(state.m[r] - g_exact[r]))

    def trace(self, s: int, seed: int, kind: OptimizerKind, hp: HyperParams) -> TrialTrace:
        """Seed s's trace, as :func:`run_trial` returns it; views, not copies."""
        n = int(self.done[s])
        return TrialTrace(
            seed=seed, kind=kind, hp=hp, t=np.arange(1, n + 1),
            loss=self.loss[s, :n], grad_l1=self.grad_l1[s, :n],
            grad_l2=self.grad_l2[s, :n], step_l2=self.step_l2[s, :n],
            eps_l1=self.eps_l1[s, :n] if self.eps_l1 is not None else None,
            aborted=n < self.T, abort_reason=self.abort_reasons[s],
        )


def run_cell(problem: StochasticProblem, kind: OptimizerKind, hp: HyperParams,
             T: int, seeds: list[int], recorder: TraceRecorder | None = None,
             ) -> tuple[np.ndarray, np.ndarray]:
    """Headlines of S seeded trials stepped together as one (S, d) state.

    Row s draws from ``make_rng(seeds[s])`` exactly as ``run_trial(problem,
    kind, hp, T, seeds[s])`` does and follows its trajectory bit for bit.
    Without a recorder only the running minimum of ||grad F(x_t)||_1 is
    kept; a :class:`TraceRecorder` sized (S, T) also receives every seed's
    trace columns.  A row that turns non-finite aborts its own seed and is
    dropped from the state.  Returns the per-seed headline (NaN where
    aborted) and the abort mask.

    Additive noise is presampled per seed into one (rows, S, d) buffer of
    bounded size.  Other noise is drawn one seed at a time, and so are the
    oracle calls, since a matrix product over the rows would not reproduce
    the per-vector arithmetic.
    """
    S, d = len(seeds), problem.d
    x0 = OptimizerState.initial(problem.constants.x_init).x
    state = OptimizerState(x=np.tile(x0, (S, 1)), m=np.zeros((S, d)),
                           v=np.zeros((S, d)), prev_x=np.tile(x0, (S, 1)), t=1)
    rngs = [make_rng(seed) for seed in seeds]
    live = np.arange(S)              # seed index of each state row
    best = np.full(S, np.inf)
    headline = np.full(S, np.nan)
    aborted = np.zeros(S, dtype=bool)
    needs_prev = kind in STORM_FAMILY
    exact_grad = problem.exact_grad

    rows = _block_rows(T, S * d)
    first = problem.presample_payloads(rngs[0], rows)
    additive = first is not None
    if additive:
        buf = np.empty((rows, S, d))
        buf[:, 0] = first
        for r in range(1, S):
            buf[:, r] = problem.presample_payloads(rngs[r], rows)
    block_start = 1
    g_exact_prev = None
    for t in range(1, T + 1):
        if additive:
            if t - block_start >= rows:
                block_start = t
                n = min(rows, T - t + 1)
                for r, rng in enumerate(rngs):
                    buf[:n, r] = problem.presample_payloads(rng, n)
            pay = buf[t - block_start]
            g_exact = exact_grad(state.x)
            g_curr = g_exact + pay
            g_prev = g_exact_prev + pay if needs_prev and t > 1 else None
        else:
            g_exact = np.empty_like(state.x)
            g_curr = np.empty_like(state.x)
            g_prev = np.empty_like(state.x) if needs_prev and t > 1 else None
            for r, rng in enumerate(rngs):
                noise = problem.draw_noise(rng)
                g_curr[r] = problem.stoch_grad(state.x[r], noise)
                if g_prev is not None:
                    g_prev[r] = problem.stoch_grad(state.prev_x[r], noise)
                g_exact[r] = exact_grad(state.x[r])
        grad_l1 = np.add.reduce(np.abs(g_exact), axis=1)
        np.minimum(best, grad_l1, out=best)
        if recorder is not None:
            recorder.record_point(t, live, state.x, g_exact, grad_l1, problem.value)
        state, finite = step_batch(state, GradientPair(g_curr, g_prev), hp, kind)
        if recorder is not None:
            recorder.record_step(t, live, state, g_exact, finite)
        if finite is not None:
            aborted[live[~finite]] = True
            live = live[finite]
            rngs = [rng for rng, ok in zip(rngs, finite) if ok]
            state = OptimizerState(x=state.x[finite], m=state.m[finite],
                                   v=state.v[finite], prev_x=state.prev_x[finite],
                                   t=state.t)
            best = best[finite]
            g_exact = g_exact[finite]
            if additive:
                buf = buf[:, finite]
            if live.size == 0:
                break
        g_exact_prev = g_exact
    headline[live] = best
    return headline, aborted


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

    def build_problem(self) -> StochasticProblem:
        return make_problem(self.problem_name, self.problem_params)

    def config_fingerprint(self) -> dict:
        return {
            "problem": {"name": self.problem_name, "params": self.problem_params},
            "optimizers": [k.value for k in self.optimizers],
            "T_grid": list(self.T_grid),
            "n_seeds": self.n_seeds,
            "delta": self.delta,
            "param_mode": self.param_mode,
            "beta2": self.beta2,
            "alpha": self.alpha,
            "beta": self.beta,
            "per_step": self.per_step,
            "collect_diagnostics": self.collect_diagnostics,
        }


def resolve_hyperparams(spec: ExperimentSpec, problem: StochasticProblem,
                        kind: OptimizerKind, T: int) -> HyperParams:
    """Pick hyperparameters for one cell.

    Theorem mode feeds the problem's declared constants into the tuned
    formulas; practical mode uses the (alpha, beta) schedule.  Every
    optimizer in a run shares that choice except Adam, which keeps its
    standard (0.9, 0.999, 1e-8) configuration at the same step size so the
    baseline stays the stock method.
    """
    consts = problem.constants
    if spec.param_mode == "theorem":
        choice = theorem_params(TheoremInputs(
            delta=consts.delta_upper, L1_norm=consts.L1_norm,
            sigma1_norm=consts.sigma1_norm, T=T, beta2=spec.beta2,
            confidence_delta=spec.delta, d=problem.d))
    else:
        choice = practical_params(spec.alpha, spec.beta, T, beta2=spec.beta2,
                                  per_step=spec.per_step)
    if kind is OptimizerKind.ADAM:
        return HyperParams.adam_defaults(choice.hp.eta)
    return choice.hp


def _experiment_cell(args) -> tuple[tuple[int, int], np.ndarray, np.ndarray]:
    spec, opt_idx, T_idx, trace_dir = args
    problem = spec.build_problem()
    kind = spec.optimizers[opt_idx]
    T = spec.T_grid[T_idx]
    hp = resolve_hyperparams(spec, problem, kind, T)
    seeds = [derive_seed(spec.master_seed, opt_idx, T_idx, seed_idx)
             for seed_idx in range(spec.n_seeds)]
    if trace_dir is None:
        headline, aborted = run_cell(problem, kind, hp, T, seeds)
        return (opt_idx, T_idx), headline, aborted

    # rows are independent, so stepping the seeds in chunks changes no bit
    os.makedirs(trace_dir, exist_ok=True)
    diag = spec.collect_diagnostics
    chunk = max(1, _TRACE_VALUES // (T * (5 if diag else 4)))
    headline = np.empty(len(seeds))
    aborted = np.empty(len(seeds), dtype=bool)
    for lo in range(0, len(seeds), chunk):
        part = seeds[lo:lo + chunk]
        recorder = TraceRecorder(len(part), T, diag)
        headline[lo:lo + len(part)], aborted[lo:lo + len(part)] = run_cell(
            problem, kind, hp, T, part, recorder)
        for s, seed in enumerate(part):
            write_trace_csv(recorder.trace(s, seed, kind, hp),
                            os.path.join(trace_dir, f"{kind.value}_T{T}_s{lo + s}.csv"))
        del recorder  # free this chunk's columns before the next is allocated
    return (opt_idx, T_idx), headline, aborted


def _worker_count() -> int:
    env = os.environ.get("SIGNSTORM_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(
                f"SIGNSTORM_THREADS must be an integer, got {env!r}") from None
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

    results: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    if workers <= 1 or len(tasks) == 1:
        for task in tasks:
            key, headline, aborted = _experiment_cell(task)
            results[key] = (headline, aborted)
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            for key, headline, aborted in pool.map(_experiment_cell, tasks):
                results[key] = (headline, aborted)

    levels = {"0.5": 0.5, "0.9": 0.9, "1-delta": 1.0 - spec.delta}
    cells = []
    medians: dict[str, list[tuple[int, float]]] = {k.value: [] for k in spec.optimizers}
    nonfinite = 0
    for oi, kind in enumerate(spec.optimizers):
        for ti, T in enumerate(spec.T_grid):
            headline, aborted = results[(oi, ti)]
            vals = [float(h) for h, a in zip(headline, aborted)
                    if not a and math.isfinite(h)]
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


def trace_stride(T: int, max_rows: int = MAX_TRACE_ROWS) -> int:
    """Fixed downsampling stride keeping stored traces at or under max_rows."""
    return max(1, math.ceil(T / max_rows))


def write_trace_csv(trace: TrialTrace, path: str) -> None:
    """CSV trace (UTF-8, LF endings); long runs are strided, metrics are not."""
    if trace.loss.size != trace.t.size:
        raise ValueError("trace was collected without metrics; nothing to write")
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
