"""The seed-batched engine against its per-seed reference, bit for bit.

``step_batch`` on an (S, d) state must equal S calls of ``step``.  The
reference for ``run_cell`` is :func:`reference_trial`, a frozen copy of
the hand-written per-seed loop the engine replaced.  ``run_cell`` must
reproduce the headline and the abort of every seed's reference trial,
with a ``TraceRecorder`` every column of its trace, and with a
``DiagnosticRecorder`` the step norms and estimator errors of its
diagnostics columns.  ``run_trial``, the engine's single-seed call, must
reproduce the reference trace too.  The three grids that check this over
every problem and kind share one seed list and run each case's reference
once.  ``run_cell`` steps any seed list in chunks, and without a
recorder still keeps each seed's headline, abort step and reason.  An
experiment whose per-optimizer tasks step their seeds in several chunks
must report what one chunk per cell gives, and the same bytes at any
worker count.  Seeds with their own horizons and hyperparameters in one
call must each match a one-horizon call of their own.
Bit equality is checked on the raw bytes, so a -0.0 that turns into 0.0
counts as a difference.
"""

import dataclasses
import functools
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from signstorm import (
    DiagnosticRecorder,
    ExperimentSpec,
    GradientPair,
    HyperParams,
    NonFiniteValue,
    OptimizerKind,
    OptimizerState,
    Schedule,
    TraceRecorder,
    TrialTrace,
    derive_seed,
    make_rng,
    make_problem,
    practical_params,
    run_cell,
    run_experiment,
    run_trial,
    step,
    step_batch,
    write_trace_csv,
)
from signstorm import harness
from signstorm.optim import STORM_FAMILY


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def batch_cases(draw):
    S = draw(st.integers(1, 4))
    # wide rows reach the blocked summation inside numpy's reductions
    d = draw(st.integers(1, 6) | st.integers(16, 40))
    if draw(st.booleans()):
        vals = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
        def mat():
            return draw(arrays(np.float64, (S, d), elements=vals))
    else:
        # full-precision values, where a change of summation order shows
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        def mat():
            return 3.0 * rng.standard_normal((S, d))
    x, m, g_curr, g_prev = mat(), mat(), mat(), mat()
    v = np.abs(mat())
    # zero lanes exercise the 0/0 = 0 rule; a zero row, the zero L2 norm
    zero = draw(arrays(np.bool_, (S, d)))
    if draw(st.booleans()):
        zero[draw(st.integers(0, S - 1))] = True
    for arr in (m, v, g_curr, g_prev):
        arr[zero] = 0.0
    # one lane may carry a non-finite gradient, which must abort its row only
    if draw(st.booleans()):
        g_curr[draw(st.integers(0, S - 1)), draw(st.integers(0, d - 1))] = draw(
            st.sampled_from([np.inf, -np.inf, np.nan]))
    hp = HyperParams(
        eta=draw(st.floats(1e-4, 1.0)),
        beta1=draw(st.just(0.0) | st.floats(0.0, 0.99)),
        beta2=draw(st.just(0.0) | st.floats(0.0, 0.999)),
        eps_guard=draw(st.just(0.0) | st.floats(1e-12, 1e-2)),
        schedule=draw(st.sampled_from(list(Schedule))),
    )
    t = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(list(OptimizerKind)))
    return OptimizerState(x=x, m=m, v=v, prev_x=x.copy(), t=t), g_curr, g_prev, hp, kind


@settings(max_examples=400, deadline=None)
@given(batch_cases())
def test_step_batch_equals_looped_steps(case):
    state, g_curr, g_prev, hp, kind = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        batched, finite = step_batch(state, GradientPair(g_curr, g_prev), hp, kind)
        if finite is None:
            finite = np.ones(state.x.shape[0], dtype=bool)
        else:
            assert not finite.all()
        for r in range(state.x.shape[0]):
            row = OptimizerState(x=state.x[r].copy(), m=state.m[r].copy(),
                                 v=state.v[r].copy(), prev_x=state.x[r].copy(),
                                 t=state.t)
            try:
                single = step(row, GradientPair(g_curr[r].copy(), g_prev[r].copy()),
                              hp, kind)
            except NonFiniteValue:
                assert not finite[r]
                continue
            assert finite[r]
            assert same_bits(batched.x[r], single.x)
            assert same_bits(batched.m[r], single.m)
            assert same_bits(batched.v[r], single.v)
    assert batched.t == state.t + 1
    assert same_bits(batched.prev_x, state.x)


def reference_trial(problem, kind, hp, T, seed, collect_diagnostics=False):
    """One seed's trial stepped by :func:`step`, the per-seed loop that
    ``run_trial`` ran before it became the single-seed call of ``run_cell``.

    Kept frozen as the engine's reference.  It reads the presample budget
    when it is called, so a patched ``harness._PRESAMPLE_VALUES`` forces
    its refills as it does the engine's.  Additive noise is presampled; the
    finite sum, whose noise has a support, draws one index per step, so the
    engine's index blocks are checked against scalar draws.
    """
    rng = make_rng(seed)
    state = OptimizerState.initial(problem.constants.x_init)
    needs_prev = kind in STORM_FAMILY
    loss = np.empty(T)
    grad_l1 = np.empty(T)
    grad_l2 = np.empty(T)
    step_l2 = np.empty(T)
    eps_l1 = np.empty(T) if collect_diagnostics else None
    exact_grad = problem.exact_grad
    value = problem.value

    rows = max(1, min(T, harness._PRESAMPLE_VALUES // problem.d))
    # the finite sum keeps its one draw and one oracle call per step
    additive = problem.noise_support() is None
    payloads = problem.presample_payloads(rng, rows) if additive else None
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
            g_exact = exact_grad(state.x)
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

    return TrialTrace(
        seed=seed, kind=kind, hp=hp,
        t=np.arange(1, done + 1),
        loss=loss[:done], grad_l1=grad_l1[:done], grad_l2=grad_l2[:done],
        step_l2=step_l2[:done],
        eps_l1=eps_l1[:done] if collect_diagnostics else None,
        aborted=done < T, abort_reason=reason,
    )


# case id -> (problem name, params); the last three are the edge cases
# d = 1, sigma = 0 and a one-dimensional nonconvex problem
PROBLEMS = {
    "noisy_quadratic": ("noisy_quadratic", {
        "d": 7, "hessian_diag": [0.5, 1, 2, 1, 3, 0.7, 1.2], "sigma": 0.4,
        "x_init": [1, -1, 0.5, 2, -0.3, 0.8, 1.5]}),
    "bounded_nonconvex": ("bounded_nonconvex", {
        "d": 5, "a": [1, 2, 0.5, 1, 1.5], "sigma": 0.3,
        "x_init": [1.0, -2.0, 0.5, 0.0, 1.5]}),
    "synthetic_logistic": ("synthetic_logistic", {
        "d": 9, "n_samples": 24, "feature_bound": 1.0, "x_init": 0.3, "data_seed": 4}),
    "noisy_quadratic_d1": ("noisy_quadratic", {
        "d": 1, "hessian_diag": 1.5, "sigma": 0.4, "x_init": 1.0}),
    "noisy_quadratic_sigma0": ("noisy_quadratic", {
        "d": 4, "hessian_diag": [0.5, 1, 2, 3], "sigma": 0.0,
        "x_init": [1, -1, 0.5, 2]}),
    "bounded_nonconvex_d1": ("bounded_nonconvex", {
        "d": 1, "a": 2.0, "sigma": 0.3, "x_init": -1.5}),
}


def hyperparams(kind, beta1):
    """Adam's stock settings or a shared choice; beta1 None keeps its value."""
    hp = (HyperParams.adam_defaults(0.05) if kind is OptimizerKind.ADAM
          else HyperParams(eta=0.05, beta1=0.8, beta2=0.5))
    return hp if beta1 is None else dataclasses.replace(hp, beta1=beta1)


# the seeds every case of the three engine-vs-reference grids steps
GRID_SEEDS = [derive_seed(22, s) for s in range(3)]


@functools.cache
def grid_references(name, kind, block_values, beta1):
    """Reference trials, with their eps_l1 column, of one grid case's
    GRID_SEEDS, computed once for the three grids that compare against
    them.  Only :func:`grid_case` calls it, with the budget patched."""
    problem = make_problem(*PROBLEMS[name])
    hp = hyperparams(kind, beta1)
    return [reference_trial(problem, kind, hp, 150, seed, collect_diagnostics=True)
            for seed in GRID_SEEDS]


def grid_case(name, kind, block_values, beta1, monkeypatch):
    """The problem, hyperparameters and reference trials of one grid case;
    a tiny presample budget forces a buffer refill on almost every step."""
    if block_values is not None:
        monkeypatch.setattr(harness, "_PRESAMPLE_VALUES", block_values)
    references = grid_references(name, kind, block_values, beta1)
    return make_problem(*PROBLEMS[name]), hyperparams(kind, beta1), references


@pytest.mark.parametrize("beta1", [None, 0.0])
@pytest.mark.parametrize("block_values", [None, 40])
@pytest.mark.parametrize("kind", list(OptimizerKind))
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_cell_matches_per_seed_trials(name, kind, block_values, beta1, monkeypatch):
    problem, hp, references = grid_case(name, kind, block_values, beta1, monkeypatch)
    cell = run_cell(problem, kind, hp, 150, GRID_SEEDS)
    for s, trace in enumerate(references):
        assert not trace.aborted and cell.done[s] == 150
        assert same_bits(cell.headline[s], trace.headline)


def test_abort_drops_only_its_own_seed():
    # SGD with eta*h a little above 2 grows |x| geometrically, and each seed's
    # noise decides at which step it overflows: here seven seeds abort at
    # different steps late in the run and one finishes
    params = {"d": 2, "hessian_diag": 1e150, "sigma": 1e150, "x_init": 0.0}
    problem = make_problem("noisy_quadratic", params)
    T = 2007
    hp = practical_params(3.5e-148, 1.0, T)
    seeds = [derive_seed(7, 0, 0, s) for s in range(8)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cell = run_cell(problem, OptimizerKind.SGD, hp, T, seeds)
        traces = [reference_trial(problem, OptimizerKind.SGD, hp, T, seed)
                  for seed in seeds]
        report = run_experiment(ExperimentSpec(
            problem_name="noisy_quadratic", problem_params=params,
            optimizers=[OptimizerKind.SGD], T_grid=[T], n_seeds=8, delta=0.1,
            param_mode="practical", alpha=3.5e-148, master_seed=7), max_workers=1)
    expected = [trace.aborted for trace in traces]
    assert 0 < sum(expected) < len(seeds)
    assert len({trace.t.size for trace in traces if trace.aborted}) > 1
    assert (cell.done < T).tolist() == expected
    assert report.cells[0]["n_fail"] == sum(expected)
    for s, trace in enumerate(traces):
        # with no recorder given, the default one keeps each seed's abort
        # step and reason: T and "" where it finished
        assert bool(trace.abort_reason) == trace.aborted
        assert cell.done[s] == trace.t.size and cell.abort_reasons[s] == trace.abort_reason
        if not trace.aborted:
            assert same_bits(cell.headline[s], trace.headline)
        else:
            assert np.isnan(cell.headline[s])


def test_direct_call_chunks_its_seeds(monkeypatch):
    # 200 seeds at d = 20 sharing one 2^16-value buffer would get 16 rows
    # each, so every seed would refill every 16 steps; run_cell's chunks of
    # 51 seeds leave each seed 64 rows, one refill per 64 steps
    params = {"d": 20, "hessian_diag": 1.0, "sigma": 0.3,
              "x_init": [0.5 + j / 19 for j in range(20)]}
    problem = make_problem("noisy_quadratic", params)
    S, T, kind = 200, 200, OptimizerKind.SIGNSTORM
    hp = hyperparams(kind, None)
    seeds = [derive_seed(22, s) for s in range(S)]
    calls = []
    presample = problem.presample_payloads

    def counted_presample(rng, n):
        calls.append(n)
        return presample(rng, n)

    monkeypatch.setattr(problem, "presample_payloads", counted_presample)
    cell = run_cell(problem, kind, hp, T, seeds)
    assert len(calls) <= S * math.ceil(T / harness._MIN_PRESAMPLE_ROWS)
    for s in (0, 50, 51, S - 1):
        trace = reference_trial(problem, kind, hp, T, seeds[s])
        assert not trace.aborted and cell.done[s] == T
        assert same_bits(cell.headline[s], trace.headline)


@pytest.mark.parametrize("case", ["staggered_abort", "two_kinds"])
def test_seed_chunks_match_one_cell(case, monkeypatch):
    # the staggered aborts of test_abort_drops_only_its_own_seed, and a cell
    # grid with two kinds and two horizons where every seed finishes
    if case == "staggered_abort":
        spec = ExperimentSpec(
            problem_name="noisy_quadratic",
            problem_params={"d": 2, "hessian_diag": 1e150, "sigma": 1e150, "x_init": 0.0},
            optimizers=[OptimizerKind.SGD], T_grid=[2007], n_seeds=8, delta=0.1,
            param_mode="practical", alpha=3.5e-148, master_seed=7)
    else:
        name, params = PROBLEMS["noisy_quadratic"]
        spec = ExperimentSpec(
            problem_name=name, problem_params=params,
            optimizers=[OptimizerKind.SIGNSTORM, OptimizerKind.ADAM], T_grid=[150, 300],
            n_seeds=7, delta=0.1, param_mode="practical", master_seed=25)
    problem = spec.build_problem()
    cells = [(oi, ti) for oi in range(len(spec.optimizers))
             for ti in range(len(spec.T_grid))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        whole = run_experiment(spec, max_workers=1).to_json()
        expected = {}
        for oi, ti in cells:
            kind, T = spec.optimizers[oi], spec.T_grid[ti]
            seeds = [derive_seed(spec.master_seed, oi, ti, s) for s in range(spec.n_seeds)]
            hp = harness.resolve_hyperparams(spec, problem, kind, T)
            expected[oi, ti] = run_cell(problem, kind, hp, T, seeds)

        # a budget of three seeds' minimum rows: an optimizer's task steps
        # its seeds at every horizon in chunks of 3 rows and the rest
        monkeypatch.setattr(harness, "_PRESAMPLE_VALUES",
                            3 * problem.d * harness._MIN_PRESAMPLE_ROWS)
        chunks, results = [], {}
        chunk_body, experiment_task = harness._run_chunk, harness._experiment_task

        def counted_chunk(problem, kind, hps, ends, seeds, live, recorder, empty):
            chunks.append(len(seeds))
            return chunk_body(problem, kind, hps, ends, seeds, live, recorder, empty)

        def kept_task(task):
            part = experiment_task(task)
            results.update(part)
            return part

        monkeypatch.setattr(harness, "_run_chunk", counted_chunk)
        monkeypatch.setattr(harness, "_experiment_task", kept_task)
        report = run_experiment(spec, max_workers=1)
    rows = spec.n_seeds * len(spec.T_grid)
    assert chunks == ([3] * (rows // 3) + [rows % 3]) * len(spec.optimizers)
    assert report.to_json() == whole
    if case == "staggered_abort":
        assert (expected[0, 0].done[3:6] < spec.T_grid[0]).any()
    for cell, (oi, ti) in zip(report.cells, cells):
        whole_cell, chunked = expected[oi, ti], results[oi, ti, 0]
        aborted = whole_cell.done < spec.T_grid[ti]
        assert same_bits(chunked.headline, whole_cell.headline)
        assert chunked.done.tolist() == whole_cell.done.tolist()
        assert chunked.abort_reasons == whole_cell.abort_reasons
        assert cell["n_fail"] == int(np.sum(aborted | ~np.isfinite(whole_cell.headline)))


def assert_same_trace(recorded, reference):
    assert recorded.aborted == reference.aborted
    assert recorded.abort_reason == reference.abort_reason
    assert same_bits(recorded.t, reference.t)
    for column in ("loss", "grad_l1", "grad_l2", "step_l2", "eps_l1"):
        assert same_bits(getattr(recorded, column), getattr(reference, column)), column


@pytest.mark.parametrize("beta1", [None, 0.0])
@pytest.mark.parametrize("block_values", [None, 40])
@pytest.mark.parametrize("kind", list(OptimizerKind))
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_recorded_traces_match_per_seed_trials(name, kind, block_values, beta1,
                                               monkeypatch):
    problem, hp, references = grid_case(name, kind, block_values, beta1, monkeypatch)
    recorder = TraceRecorder(len(GRID_SEEDS), 150, collect_diagnostics=True)
    assert run_cell(problem, kind, hp, 150, GRID_SEEDS, recorder) is recorder
    for s, (seed, trace) in enumerate(zip(GRID_SEEDS, references)):
        assert_same_trace(recorder.trace(s, seed, kind, hp), trace)
        assert recorder.done[s] == 150 and same_bits(recorder.headline[s], trace.headline)
        assert_same_trace(run_trial(problem, kind, hp, 150, seed,
                                    collect_diagnostics=True), trace)
    # without diagnostics the reference lacks only the eps_l1 column
    assert_same_trace(run_trial(problem, kind, hp, 150, GRID_SEEDS[0]),
                      dataclasses.replace(references[0], eps_l1=None))


def test_recorded_traces_stop_at_each_seeds_abort():
    # the staggered aborts of test_abort_drops_only_its_own_seed
    problem = make_problem("noisy_quadratic", {"d": 2, "hessian_diag": 1e150,
                                               "sigma": 1e150, "x_init": 0.0})
    T = 2007
    hp = practical_params(3.5e-148, 1.0, T)
    seeds = [derive_seed(7, 0, 0, s) for s in range(8)]
    recorder = TraceRecorder(len(seeds), T, collect_diagnostics=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run_cell(problem, OptimizerKind.SGD, hp, T, seeds, recorder)
        traces = [reference_trial(problem, OptimizerKind.SGD, hp, T, seed,
                                  collect_diagnostics=True) for seed in seeds]
        singles = [run_trial(problem, OptimizerKind.SGD, hp, T, seed,
                             collect_diagnostics=True) for seed in seeds]
    assert len({trace.t.size for trace in traces if trace.aborted}) > 1
    for s, (seed, trace) in enumerate(zip(seeds, traces)):
        assert (recorder.done[s] < T) == trace.aborted
        assert_same_trace(recorder.trace(s, seed, OptimizerKind.SGD, hp), trace)
        assert_same_trace(singles[s], trace)


@pytest.mark.parametrize("diagnostics", [False, True])
def test_chunked_trace_files_match_per_seed_trials(diagnostics, tmp_path, monkeypatch):
    # a budget of two seeds' columns splits the five seeds into chunks 2, 2, 1
    T = 60
    columns = 5 if diagnostics else 4
    monkeypatch.setattr(harness, "_TRACE_VALUES", 2 * T * columns + 1)
    name, params = PROBLEMS["synthetic_logistic"]
    spec = ExperimentSpec(
        problem_name=name, problem_params=params,
        optimizers=[OptimizerKind.SIGNSTORM, OptimizerKind.L2_NORMALIZED_STORM],
        T_grid=[T], n_seeds=5, delta=0.1, param_mode="practical", master_seed=23,
        collect_diagnostics=diagnostics)
    report = run_experiment(spec, max_workers=1, trace_dir=str(tmp_path / "traces"))
    assert report.to_json() == run_experiment(spec, max_workers=1).to_json()
    problem = spec.build_problem()
    for oi, kind in enumerate(spec.optimizers):
        hp = harness.resolve_hyperparams(spec, problem, kind, T)
        for si in range(spec.n_seeds):
            trace = reference_trial(problem, kind, hp, T, derive_seed(23, oi, 0, si),
                                    collect_diagnostics=diagnostics)
            expected = tmp_path / "expected.csv"
            write_trace_csv(trace, str(expected))
            written = tmp_path / "traces" / f"{kind.value}_T{T}_s{si}.csv"
            assert written.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("beta1", [None, 0.0])
@pytest.mark.parametrize("block_values", [None, 40])
@pytest.mark.parametrize("kind", list(OptimizerKind))
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_diagnosed_runs_match_per_seed_trials(name, kind, block_values, beta1,
                                              monkeypatch):
    problem, hp, references = grid_case(name, kind, block_values, beta1, monkeypatch)
    recorder = DiagnosticRecorder(len(GRID_SEEDS), 150, problem.d)
    run_cell(problem, kind, hp, 150, GRID_SEEDS, recorder)
    for s, (seed, trace) in enumerate(zip(GRID_SEEDS, references)):
        run = recorder.run(s, seed, kind, hp)
        assert same_bits(run.step_l2, trace.step_l2)
        assert same_bits([np.sum(np.abs(eps)) for eps in run.trace.eps], trace.eps_l1)
        assert same_bits([np.add.reduce(np.abs(g)) for g in run.grad_exact],
                         trace.grad_l1)


STAGGERED = ("noisy_quadratic", {"d": 2, "hessian_diag": 1e150, "sigma": 1e150, "x_init": 0.0})


@st.composite
def mixed_horizon_cases(draw):
    """A problem, a kind, per-seed horizons and the per-seed hyperparameters
    an experiment would give them, and the seeds per chunk: None for the
    default budget, else a budget that leaves that many seeds min(T, 64)
    rows each, so horizons above 64 refill after rows have retired."""
    if draw(st.integers(0, 3)):
        name, params = PROBLEMS[draw(st.sampled_from(sorted(PROBLEMS)))]
        kind = draw(st.sampled_from(list(OptimizerKind)))
        # unsorted and repeated, T = 1 included
        horizons = draw(st.lists(st.integers(1, 40) | st.integers(41, 150) | st.just(1),
                                 min_size=1, max_size=6))
        spec = ExperimentSpec(
            problem_name=name, problem_params=params, optimizers=[kind],
            T_grid=[1], n_seeds=1, delta=0.1,
            param_mode=draw(st.sampled_from(["theorem", "practical"])),
            per_step=draw(st.booleans()))
        seeds = [derive_seed(draw(st.integers(0, 99)), s) for s in range(len(horizons))]
    else:
        # the staggered aborts of test_abort_drops_only_its_own_seed, which
        # fall on steps 1996 to 2001
        name, params = STAGGERED
        kind = OptimizerKind.SGD
        horizons = draw(st.lists(st.integers(1990, 2007) | st.just(2007),
                                 min_size=1, max_size=6))
        spec = ExperimentSpec(
            problem_name=name, problem_params=params, optimizers=[kind],
            T_grid=[1], n_seeds=1, delta=0.1, param_mode="practical", alpha=3.5e-148)
        seeds = [derive_seed(7, 0, 0, s) for s in range(len(horizons))]
    problem = spec.build_problem()
    hps = [harness.resolve_hyperparams(spec, problem, kind, T) for T in horizons]
    # the engine takes any valid HyperParams; Adam keeps its stock betas
    if kind is not OptimizerKind.ADAM and draw(st.booleans()):
        hps = [dataclasses.replace(hp, beta2=0.3) for hp in hps]
    if draw(st.booleans()):
        hps = [dataclasses.replace(hp, beta1=0.0) for hp in hps]
    per_chunk = draw(st.sampled_from([None, 1, 2, 3]))
    return problem, kind, hps, horizons, seeds, per_chunk


@settings(max_examples=100, deadline=None)
@given(mixed_horizon_cases())
def test_mixed_horizons_match_one_horizon_calls(case):
    problem, kind, hps, horizons, seeds, per_chunk = case
    row_size = math.prod(problem.presample_payloads(make_rng(0), 0).shape[1:])
    values = (harness._PRESAMPLE_VALUES if per_chunk is None else
              per_chunk * row_size * min(max(horizons), harness._MIN_PRESAMPLE_ROWS))
    with warnings.catch_warnings(), mock.patch.object(harness, "_PRESAMPLE_VALUES", values):
        warnings.simplefilter("ignore", RuntimeWarning)
        S = len(seeds)
        base = run_cell(problem, kind, hps, horizons, seeds)
        traced = run_cell(problem, kind, hps, horizons, seeds,
                          TraceRecorder(S, horizons, collect_diagnostics=True))
        for s, (hp, T, seed) in enumerate(zip(hps, horizons, seeds)):
            single = run_cell(problem, kind, hp, T, [seed],
                              TraceRecorder(1, T, collect_diagnostics=True))
            for cell in (base, traced):
                assert same_bits(cell.headline[s], single.headline[0])
                assert cell.done[s] == single.done[0]
                assert cell.abort_reasons[s] == single.abort_reasons[0]
            assert_same_trace(traced.trace(s, seed, kind, hp), single.trace(0, seed, kind, hp))


def test_rows_must_share_schedule_and_guard():
    problem = make_problem(*PROBLEMS["noisy_quadratic"])
    hp = HyperParams(eta=0.05, beta1=0.8, beta2=0.5)
    for other in (dataclasses.replace(hp, schedule=Schedule.PER_STEP_SQRT_T),
                  dataclasses.replace(hp, eps_guard=1e-8)):
        with pytest.raises(ValueError):
            run_cell(problem, OptimizerKind.SIGNSTORM, [hp, other], 10, [1, 2])


def test_logistic_chunk_sized_by_its_payload_row(monkeypatch):
    # a synthetic_logistic payload row is one index, so 40 seeds at d = 200
    # fit one chunk of the 2^16-value buffer
    problem = make_problem("synthetic_logistic", {
        "d": 200, "n_samples": 32, "feature_bound": 1.0, "x_init": 0.1, "data_seed": 3})
    kind, T = OptimizerKind.SIGNSTORM, 30
    hp = hyperparams(kind, None)
    seeds = [derive_seed(40, s) for s in range(40)]
    chunks = []
    chunk_body = harness._run_chunk

    def counted_chunk(problem, kind, hps, ends, seeds, live, recorder, empty):
        chunks.append(len(seeds))
        return chunk_body(problem, kind, hps, ends, seeds, live, recorder, empty)

    monkeypatch.setattr(harness, "_run_chunk", counted_chunk)
    cell = run_cell(problem, kind, hp, T, seeds)
    assert chunks == [40]
    for s in (0, 17, 39):
        single = run_cell(problem, kind, hp, T, [seeds[s]])
        assert same_bits(cell.headline[s], single.headline[0])


@pytest.mark.parametrize("case", ["staggered_abort", "one_kind"])
def test_seed_range_tasks_are_worker_count_invariant(case, tmp_path):
    # a one-optimizer spec splits its seeds into ranges from two workers up
    if case == "staggered_abort":
        name, params = STAGGERED
        spec = ExperimentSpec(
            problem_name=name, problem_params=params, optimizers=[OptimizerKind.SGD],
            T_grid=[1900, 2007], n_seeds=8, delta=0.1, param_mode="practical",
            alpha=3.5e-148, master_seed=7)
    else:
        name, params = PROBLEMS["synthetic_logistic"]
        spec = ExperimentSpec(
            problem_name=name, problem_params=params, optimizers=[OptimizerKind.SIGNSTORM],
            T_grid=[20, 30, 45], n_seeds=7, delta=0.1, master_seed=3,
            collect_diagnostics=True)
    outputs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for workers in (1, 2, 3, 5):
            trace_dir = tmp_path / f"w{workers}"
            report = run_experiment(spec, max_workers=workers, trace_dir=str(trace_dir))
            files = {p.name: p.read_bytes() for p in sorted(trace_dir.iterdir())}
            outputs.append((report.to_json(), files))
    assert len(outputs[0][1]) == spec.n_seeds * len(spec.T_grid)
    if case == "staggered_abort":
        assert 0 < json.loads(outputs[0][0])["violations"]["nonfinite_aborts"]
    assert all(out == outputs[0] for out in outputs[1:])
