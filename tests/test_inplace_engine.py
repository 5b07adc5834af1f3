"""The in-place engine against a frozen copy of the allocating one, bit for bit.

``run_cell`` steps every chunk in (S, d) buffers that it allocates once
and overwrites each step.  The reference below is a frozen copy of the
engine before that change: a ``_run_chunk`` that builds fresh arrays every
step, the ``_advance`` kernel that returned new x, m and v, hyperparameter
rows held as (S, 1) columns, and the additive oracles' broadcast products.
Every seed's headline, abort step and reason, trace columns and diagnostic
arrays must match it for all seven kinds, with rows that end or abort at
different steps (an abort in the middle breaks the contiguous run of live
rows), per-row hyperparameters, and the edge values beta1 = 0, beta2 > 0,
eps_guard > 0, sigma = 0 and d = 1.  The engine must also leave the
problem's initial point and the rows a recorder has finished alone, and
``step`` must share no array with its input.  Each ``record`` call must
receive the state the step left: ``prev_x`` is x_t, ``x`` is x_{t+1} and
``t`` is t + 1, and the gradient pair has no ``g_prev`` at t = 1, nor at
any t where the engine does not compute it.
"""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signstorm import (
    DiagnosticRun,
    GradientPair,
    HyperParams,
    NonFiniteValue,
    OptimizerKind,
    OptimizerState,
    Schedule,
    TraceRecorder,
    derive_seed,
    make_problem,
    make_rng,
    run_cell,
    step,
)
from signstorm import harness, problems
from signstorm.harness import Recorder
from signstorm.optim import STORM_FAMILY, _check_finite, _row_norms


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---- the frozen allocating engine ------------------------------------------

def frozen_guarded_ratio(m, v, eps_guard):
    denom = np.sqrt(v)
    if eps_guard != 0.0:
        denom += eps_guard
    out = np.zeros(m.shape)
    np.divide(m, denom, out=out, where=denom > 0.0)
    return out


def frozen_storm_estimator(state, grads, beta1):
    if state.t == 1:
        return grads.g_curr.copy()
    m = state.m - grads.g_prev
    m *= beta1
    m += grads.g_curr
    return m


def frozen_second_moment(v_prev, m, beta2):
    v = v_prev * beta2
    mm = m * m
    mm *= 1.0 - beta2
    v += mm
    return v


def frozen_advance(state, grads, hp, kind):
    eta = hp.step_size(state.t)
    g = grads.g_curr
    if kind is OptimizerKind.SIGNSTORM:
        m = frozen_storm_estimator(state, grads, hp.beta1)
        v = frozen_second_moment(state.v, m, hp.beta2)
        x = frozen_guarded_ratio(m, v, hp.eps_guard)
        x *= -eta
        x += state.x
    elif kind is OptimizerKind.SGD:
        m = g.copy()
        v = state.v.copy()
        x = state.x - eta * m
    elif kind is OptimizerKind.MOMENTUM_SGD:
        m = hp.beta1 * state.m + (1.0 - hp.beta1) * g
        v = state.v.copy()
        x = state.x - eta * m
    elif kind is OptimizerKind.GENERALIZED_SIGN_SGD:
        m = hp.beta1 * state.m + (1.0 - hp.beta1) * g
        v = frozen_second_moment(state.v, m, hp.beta2)
        x = state.x - eta * frozen_guarded_ratio(m, v, hp.eps_guard)
    elif kind is OptimizerKind.STORM:
        m = frozen_storm_estimator(state, grads, hp.beta1)
        v = state.v.copy()
        x = state.x - eta * m
    elif kind is OptimizerKind.ADAM:
        m = hp.beta1 * state.m + (1.0 - hp.beta1) * g
        v = hp.beta2 * state.v + (1.0 - hp.beta2) * g * g
        m_hat = m / (1.0 - hp.beta1 ** state.t)
        v_hat = v / (1.0 - hp.beta2 ** state.t)
        x = state.x - eta * frozen_guarded_ratio(m_hat, v_hat, hp.eps_guard)
    else:
        m = frozen_storm_estimator(state, grads, hp.beta1)
        v = state.v.copy()
        norm = _row_norms(m)
        move = np.divide(eta * m, norm, out=np.zeros(m.shape), where=norm > 0.0)
        x = state.x - move
    return x, m, v


def frozen_finite_rows(x, m, v):
    if math.isfinite(float(np.add.reduce(x + m + v, axis=None))):
        return None
    finite = np.isfinite(x).all(axis=1) & np.isfinite(m).all(axis=1) & np.isfinite(v).all(axis=1)
    return None if finite.all() else finite


class FrozenRowParams:
    """Per-row hyperparameters as (S, 1) columns where the rows differ."""

    step_size = HyperParams.step_size

    def __init__(self, hps):
        first = hps[0]
        self.schedule, self.eps_guard = first.schedule, first.eps_guard
        for name in ("eta", "beta1", "beta2"):
            vals = [getattr(hp, name) for hp in hps]
            if len({float(v).hex() for v in vals}) > 1:
                setattr(self, name, np.array(vals, dtype=np.float64)[:, None])
            else:
                setattr(self, name, getattr(first, name))


def frozen_exact_grads(problem, xs, with_loss):
    """The additive oracles' broadcast formulas; the logistic one as is."""
    if isinstance(problem, problems.NoisyQuadratic):
        grads = problem.scale * xs
        loss = 0.5 * np.matmul(grads[:, None, :], xs[:, :, None])[:, 0, 0]
    elif isinstance(problem, problems.BoundedNonConvex):
        grads = problem.scale * 2.0 * xs / (1.0 + xs * xs) ** 2
        loss = np.add.reduce(problem.scale * xs * xs / (1.0 + xs * xs), axis=1)
    else:
        return problem.exact_grads(xs, with_loss)
    return grads, loss if with_loss else None


def frozen_sampled_grads(problem, xs, payloads, exact):
    if isinstance(problem, problems.SyntheticLogistic):
        return problem.sampled_grads(xs, payloads, exact)
    return exact + payloads


def frozen_run_chunk(problem, kind, hps, seeds, recorder, empty):
    S, d = len(seeds), problem.d
    ends, live = recorder.horizon, np.arange(S)
    x0 = OptimizerState.initial(problem.constants.x_init).x
    state = OptimizerState(x=np.tile(x0, (S, 1)), m=np.zeros((S, d)),
                           v=np.zeros((S, d)), prev_x=np.tile(x0, (S, 1)), t=1)
    params = FrozenRowParams(hps)
    rngs = [make_rng(seed) for seed in seeds]
    best = np.full(S, np.inf)
    needs_prev = kind in STORM_FAMILY or recorder.needs_prev
    T = int(ends[0])
    rows = max(1, min(T, harness._PRESAMPLE_VALUES // (S * math.prod(empty.shape[1:]))))
    buf = np.empty((rows, S) + empty.shape[1:], empty.dtype)
    block_start = 1 - rows
    g_exact_prev = None
    for t in range(1, T + 1):
        if t - block_start >= rows:
            block_start = t
            for r, (rng, end) in enumerate(zip(rngs, ends.tolist())):
                n = min(rows, end - t + 1)
                buf[:n, r] = problem.presample_payloads(rng, n)
        pay = buf[t - block_start]
        g_exact, loss = frozen_exact_grads(problem, state.x, recorder.needs_loss)
        g_curr = frozen_sampled_grads(problem, state.x, pay, g_exact)
        g_prev = (frozen_sampled_grads(problem, state.prev_x, pay, g_exact_prev)
                  if needs_prev and t > 1 else None)
        grad_l1 = np.add.reduce(np.abs(g_exact), axis=1)
        best = np.minimum(best, grad_l1)
        grads = GradientPair(g_curr, g_prev)
        x, m, v = frozen_advance(state, grads, params, kind)
        state, finite = (OptimizerState(x=x, m=m, v=v, prev_x=state.x, t=state.t + 1),
                         frozen_finite_rows(x, m, v))
        recorder.record(t, live, state, grads, g_exact, grad_l1, loss)
        g_exact_prev = g_exact
        if finite is None and ends[-1] > t:
            continue
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
        params = FrozenRowParams(hps)
        state = OptimizerState(x=state.x[keep], m=state.m[keep], v=state.v[keep],
                               prev_x=state.prev_x[keep], t=state.t)
        live, best, ends, g_exact_prev, buf = (live[keep], best[keep], ends[keep],
                                               g_exact_prev[keep], buf[:, keep])


def frozen_run_cell(problem, kind, hp, T, seeds, recorder):
    """run_cell's chunking around the frozen chunk body; its chunks as a list."""
    real = harness._run_chunk
    harness._run_chunk = frozen_run_chunk
    try:
        return list(run_cell(problem, kind, hp, T, seeds, recorder))
    finally:
        harness._run_chunk = real


# ---- recorders -------------------------------------------------------------

class FinishedRowsWatch(TraceRecorder):
    """A trace recorder that snapshots each seed's row whenever it records
    it and checks, at every later step, that rows it no longer records
    still hold their snapshots."""

    def __init__(self, n_seeds, T):
        super().__init__(n_seeds, T, collect_diagnostics=True)
        self.snapshots = {}

    def columns(self, s):
        return [col[s].copy() for col in (self.loss, self.grad_l1, self.grad_l2,
                                          self.step_l2, self.eps_l1)]

    def check_finished(self, recorded):
        for s, snap in self.snapshots.items():
            if s not in recorded:
                assert all(same_bits(a, b) for a, b in zip(self.columns(s), snap)), s

    def record(self, t, live, state, grads, g_exact, grad_l1, loss):
        recorded = set(np.arange(len(self.horizon))[live].tolist())
        self.check_finished(recorded)
        super().record(t, live, state, grads, g_exact, grad_l1, loss)
        for s in recorded:
            self.snapshots[s] = self.columns(s)


def assert_same_records(new_chunks, old_chunks):
    """Two calls' chunks: the same rows, and chunk by chunk the same records."""
    assert [rows.tolist() for rows, _ in new_chunks] == [rows.tolist() for rows, _ in old_chunks]
    for (_, new), (_, old) in zip(new_chunks, old_chunks):
        assert same_bits(new.headline, old.headline)
        assert new.done.tolist() == old.done.tolist()
        assert new.abort_reasons == old.abort_reasons
        for s, n in enumerate(new.done.tolist()):
            if isinstance(new, TraceRecorder):
                for name in ("loss", "grad_l1", "grad_l2", "step_l2", "eps_l1"):
                    a, b = getattr(new, name), getattr(old, name)
                    if a is not None:
                        assert same_bits(a[s, :n], b[s, :n]), (name, s)
            if isinstance(new, DiagnosticRun):
                for name in ("m", "v", "grad_exact", "g_curr", "g_prev", "step_l2"):
                    a, b = getattr(new, name), getattr(old, name)
                    assert same_bits(a[s, :n], b[s, :n]), (name, s)


# ---- the property ----------------------------------------------------------

PROBLEM_NAMES = ["noisy_quadratic", "bounded_nonconvex", "synthetic_logistic"]
# step sizes whose rows overflow within a few steps, so they abort
HUGE_ETA = st.sampled_from([1e300, 1e306, 1.7e308])


@st.composite
def engine_cases(draw):
    name = draw(st.sampled_from(PROBLEM_NAMES))
    d = draw(st.sampled_from([1, 2, 3, 5]))
    x_init = draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
    if name == "synthetic_logistic":
        params = {"d": d, "n_samples": draw(st.integers(1, 12)), "feature_bound": 1.0,
                  "x_init": x_init, "data_seed": draw(st.integers(0, 50))}
    else:
        scale_key = "hessian_diag" if name == "noisy_quadratic" else "a"
        params = {"d": d, scale_key: draw(st.lists(st.floats(0.1, 3.0), min_size=d, max_size=d)),
                  "sigma": draw(st.just(0.0) | st.floats(0.01, 1.0)), "x_init": x_init}
    kind = draw(st.sampled_from(list(OptimizerKind)))
    S = draw(st.integers(1, 6))
    horizons = draw(st.lists(st.integers(1, 30), min_size=S, max_size=S))
    shared = {"eps_guard": draw(st.just(0.0) | st.floats(1e-10, 1e-2)),
              "schedule": draw(st.sampled_from(list(Schedule)))}
    hps = []
    for _ in range(S):
        eta = draw(st.floats(1e-3, 0.5) | HUGE_ETA)
        hps.append(HyperParams(eta=eta, beta1=draw(st.just(0.0) | st.floats(0.0, 0.99)),
                               beta2=draw(st.just(0.0) | st.floats(0.0, 0.999)), **shared))
    # one common set of hyperparameters keeps them scalars in the kernel
    if draw(st.booleans()):
        hps = [hps[0]] * S
    seeds = [derive_seed(draw(st.integers(0, 2**32 - 1)), s) for s in range(S)]
    recorder = draw(st.sampled_from(["base", "trace", "diagnostics"]))
    # a small presample budget splits the seeds into several chunks
    budget = draw(st.sampled_from([None, 2, 3]))
    return name, params, kind, hps, horizons, seeds, recorder, budget


def make_recorder(which, d, hp, kind):
    """The factory that builds each chunk's recorder of kind ``which``."""
    if which == "trace":
        return functools.partial(TraceRecorder, collect_diagnostics=True)
    if which == "diagnostics":
        return functools.partial(DiagnosticRun, d=d, hp=hp, kind=kind)
    return Recorder


@settings(max_examples=300, deadline=None)
@given(engine_cases())
def test_in_place_engine_matches_frozen_allocating_engine(case):
    name, params, kind, hps, horizons, seeds, which, budget = case
    problem = make_problem(name, params)
    S = len(seeds)
    if which == "diagnostics":  # one horizon for every seed
        horizons = [horizons[0]] * S
    x_init = problem.constants.x_init.copy()
    real_budget = harness._PRESAMPLE_VALUES
    if budget is not None:
        row = 1 if name == "synthetic_logistic" else problem.d
        harness._PRESAMPLE_VALUES = budget * row * harness._MIN_PRESAMPLE_ROWS
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            new = list(run_cell(problem, kind, hps, horizons, seeds,
                                make_recorder(which, problem.d, hps[0], kind)))
            old = frozen_run_cell(make_problem(name, params), kind, hps, horizons, seeds,
                                  make_recorder(which, problem.d, hps[0], kind))
    finally:
        harness._PRESAMPLE_VALUES = real_budget
    assert_same_records(new, old)
    assert same_bits(problem.constants.x_init, x_init)


def test_cases_reach_a_broken_live_prefix():
    # seeds 0 and 2 run to their horizons while seed 1, between them,
    # aborts: its row leaves the middle of the chunk
    problem = make_problem("noisy_quadratic", {"d": 3, "sigma": 0.5, "x_init": 1.0})
    hp = HyperParams(eta=0.05, beta1=0.5, beta2=0.0)
    hps = [hp, dataclasses.replace(hp, eta=1.7e308), hp]
    seeds = [derive_seed(9, s) for s in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for kind in OptimizerKind:
            new = list(run_cell(problem, kind, hps, 12, seeds, FinishedRowsWatch))
            [(rows, watch)] = new
            assert rows.tolist() == [0, 1, 2]
            assert watch.done.tolist()[0::2] == [12, 12] and watch.done[1] < 12, kind
            old = frozen_run_cell(problem, kind, hps, 12, seeds,
                                  make_recorder("trace", problem.d, hp, kind))
            assert_same_records(new, old)
            watch.check_finished(set())


@settings(max_examples=100, deadline=None)
@given(S=st.integers(1, 5), T=st.lists(st.integers(1, 25), min_size=1, max_size=5),
       kind=st.sampled_from(list(OptimizerKind)), seed=st.integers(0, 2**32 - 1),
       huge=st.lists(st.booleans(), min_size=5, max_size=5))
def test_finished_rows_stay_as_recorded(S, T, kind, seed, huge):
    problem = make_problem("bounded_nonconvex", {"d": 2, "sigma": 0.3, "x_init": [1.0, -0.5]})
    horizons = (T * S)[:S]
    hps = [HyperParams(eta=1.7e308 if big else 0.1, beta1=0.7, beta2=0.3)
           for big in huge[:S]]
    seeds = [derive_seed(seed, s) for s in range(S)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _, watch in run_cell(problem, kind, hps, horizons, seeds, FinishedRowsWatch):
            watch.check_finished(set())


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(list(OptimizerKind)), d=st.integers(1, 6), t=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_step_shares_no_array_with_its_input(kind, d, t, seed):
    gen = np.random.default_rng(seed)
    state = OptimizerState(x=gen.standard_normal(d), m=gen.standard_normal(d),
                           v=gen.uniform(0.0, 2.0, d), prev_x=gen.standard_normal(d), t=t)
    grads = GradientPair(gen.standard_normal(d), gen.standard_normal(d))
    before = [a.copy() for a in (state.x, state.m, state.v, state.prev_x)]
    new = step(state, grads, HyperParams(eta=0.1, beta1=0.6, beta2=0.5), kind)
    inputs = (state.x, state.m, state.v, state.prev_x, grads.g_curr, grads.g_prev)
    for out in (new.x, new.m, new.v, new.prev_x):
        assert not any(np.shares_memory(out, a) for a in inputs)
    assert all(same_bits(a, b) for a, b in
               zip((state.x, state.m, state.v, state.prev_x), before))


class StateWatch(Recorder):
    """Copies of what every ``record`` call receives, with the recorder
    rows it writes; asks for g_prev for every kind."""

    needs_prev = True

    def __init__(self, n_seeds, T):
        super().__init__(n_seeds, T)
        self.calls = []

    def record(self, t, live, state, grads, g_exact, grad_l1, loss):
        g_prev = None if grads.g_prev is None else grads.g_prev.copy()
        self.calls.append((t, np.arange(len(self.horizon))[live], state.t, state.prev_x.copy(),
                           state.x.copy(), grads.g_curr.copy(), g_prev))


@pytest.mark.parametrize("kind", list(OptimizerKind))
@pytest.mark.parametrize("name, params", [
    ("noisy_quadratic", {"d": 3, "sigma": 0.5, "x_init": 1.0}),
    ("synthetic_logistic", {"d": 2, "n_samples": 5, "x_init": [0.5, -1.0]}),
])
def test_record_receives_the_stepped_state(name, params, kind):
    problem = make_problem(name, params)
    hp = HyperParams(eta=0.05, beta1=0.6, beta2=0.3)
    horizons = [7, 3, 1, 5]  # rows leave the chunk at different steps
    [(seed_of_row, watch)] = run_cell(problem, kind, hp, horizons,
                                      [derive_seed(4, s) for s in range(4)], StateWatch)
    # each seed replayed by step from the gradients it was given
    replay = [OptimizerState.initial(problem.constants.x_init) for _ in horizons]
    for t, rows, state_t, prev_x, x, g_curr, g_prev in watch.calls:
        assert state_t == t + 1 and (g_prev is None) == (t == 1)
        for r, s in enumerate(seed_of_row[rows].tolist()):
            assert replay[s].t == t and same_bits(prev_x[r], replay[s].x)
            pair = GradientPair(g_curr[r], None if g_prev is None else g_prev[r])
            replay[s] = step(replay[s], pair, hp, kind)
            assert same_bits(x[r], replay[s].x)
    assert [state.t - 1 for state in replay] == horizons


class UnaskedWatch(StateWatch):
    """A StateWatch that does not ask for g_prev."""

    needs_prev = False


@pytest.mark.parametrize("kind", list(OptimizerKind))
def test_g_prev_is_none_where_the_engine_does_not_compute_it(kind):
    # only the STORM family's estimator needs g_prev, so only there does a
    # recorder that does not ask for it receive it, and never at t = 1
    problem = make_problem("noisy_quadratic", {"d": 3, "sigma": 0.5, "x_init": 1.0})
    hp = HyperParams(eta=0.05, beta1=0.6, beta2=0.3)
    [(_, watch)] = run_cell(problem, kind, hp, 4, [derive_seed(4, s) for s in range(2)],
                            UnaskedWatch)
    assert [(t, g_prev is None) for t, *_, g_prev in watch.calls] == [
        (t, t == 1 or kind not in STORM_FAMILY) for t in range(1, 5)]
