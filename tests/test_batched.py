"""The seed-batched engine against its per-seed reference, bit for bit.

``step_batch`` on an (S, d) state must equal S calls of ``step``, and
``run_cell`` must reproduce the headline and the abort of every seed's
``run_trial``, with a ``TraceRecorder`` every column of its trace, and
with a ``DiagnosticRecorder`` the step norms and estimator errors of its
diagnostics columns.
Bit equality is checked on the raw bytes, so a -0.0 that turns into 0.0
counts as a difference.
"""

import warnings

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
    derive_seed,
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


PROBLEMS = {
    "noisy_quadratic": {"d": 7, "hessian_diag": [0.5, 1, 2, 1, 3, 0.7, 1.2],
                        "sigma": 0.4, "x_init": [1, -1, 0.5, 2, -0.3, 0.8, 1.5]},
    "bounded_nonconvex": {"d": 5, "a": [1, 2, 0.5, 1, 1.5], "sigma": 0.3,
                          "x_init": [1.0, -2.0, 0.5, 0.0, 1.5]},
    "synthetic_logistic": {"d": 9, "n_samples": 24, "feature_bound": 1.0,
                           "x_init": 0.3, "data_seed": 4},
}


@pytest.mark.parametrize("block_values", [None, 40])
@pytest.mark.parametrize("kind", list(OptimizerKind))
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_cell_matches_per_seed_trials(name, kind, block_values, monkeypatch):
    # a tiny presample budget forces a buffer refill on almost every step
    if block_values is not None:
        monkeypatch.setattr(harness, "_PRESAMPLE_VALUES", block_values)
    problem = make_problem(name, PROBLEMS[name])
    hp = (HyperParams.adam_defaults(0.05) if kind is OptimizerKind.ADAM
          else HyperParams(eta=0.05, beta1=0.8, beta2=0.5))
    seeds = [derive_seed(21, s) for s in range(3)]
    headline, aborted = run_cell(problem, kind, hp, 150, seeds)
    for s, seed in enumerate(seeds):
        trace = run_trial(problem, kind, hp, 150, seed)
        assert not trace.aborted and not aborted[s]
        assert same_bits(headline[s], trace.headline)


def test_abort_drops_only_its_own_seed():
    # SGD with eta*h a little above 2 grows |x| geometrically, and each seed's
    # noise decides at which step it overflows: here seven seeds abort at
    # different steps late in the run and one finishes
    params = {"d": 2, "hessian_diag": 1e150, "sigma": 1e150, "x_init": 0.0}
    problem = make_problem("noisy_quadratic", params)
    T = 2007
    hp = practical_params(3.5e-148, 1.0, T).hp
    seeds = [derive_seed(7, 0, 0, s) for s in range(8)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        headline, aborted = run_cell(problem, OptimizerKind.SGD, hp, T, seeds)
        traces = [run_trial(problem, OptimizerKind.SGD, hp, T, seed) for seed in seeds]
        report = run_experiment(ExperimentSpec(
            problem_name="noisy_quadratic", problem_params=params,
            optimizers=[OptimizerKind.SGD], T_grid=[T], n_seeds=8, delta=0.1,
            param_mode="practical", alpha=3.5e-148, master_seed=7), max_workers=1)
    expected = [trace.aborted for trace in traces]
    assert 0 < sum(expected) < len(seeds)
    assert len({trace.t.size for trace in traces if trace.aborted}) > 1
    assert aborted.tolist() == expected
    assert report.cells[0]["n_fail"] == sum(expected)
    for s, trace in enumerate(traces):
        if not trace.aborted:
            assert same_bits(headline[s], trace.headline)
        else:
            assert np.isnan(headline[s])


def assert_same_trace(recorded, reference):
    assert recorded.aborted == reference.aborted
    assert recorded.abort_reason == reference.abort_reason
    assert same_bits(recorded.t, reference.t)
    for column in ("loss", "grad_l1", "grad_l2", "step_l2", "eps_l1"):
        assert same_bits(getattr(recorded, column), getattr(reference, column)), column


@pytest.mark.parametrize("block_values", [None, 40])
@pytest.mark.parametrize("kind", list(OptimizerKind))
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_recorded_traces_match_per_seed_trials(name, kind, block_values, monkeypatch):
    if block_values is not None:
        monkeypatch.setattr(harness, "_PRESAMPLE_VALUES", block_values)
    problem = make_problem(name, PROBLEMS[name])
    hp = (HyperParams.adam_defaults(0.05) if kind is OptimizerKind.ADAM
          else HyperParams(eta=0.05, beta1=0.8, beta2=0.5))
    seeds = [derive_seed(22, s) for s in range(3)]
    recorder = TraceRecorder(len(seeds), 150, collect_diagnostics=True)
    headline, aborted = run_cell(problem, kind, hp, 150, seeds, recorder)
    for s, seed in enumerate(seeds):
        trace = run_trial(problem, kind, hp, 150, seed, collect_diagnostics=True)
        assert_same_trace(recorder.trace(s, seed, kind, hp), trace)
        assert not aborted[s] and same_bits(headline[s], trace.headline)


def test_recorded_traces_stop_at_each_seeds_abort():
    # the staggered aborts of test_abort_drops_only_its_own_seed
    problem = make_problem("noisy_quadratic", {"d": 2, "hessian_diag": 1e150,
                                               "sigma": 1e150, "x_init": 0.0})
    T = 2007
    hp = practical_params(3.5e-148, 1.0, T).hp
    seeds = [derive_seed(7, 0, 0, s) for s in range(8)]
    recorder = TraceRecorder(len(seeds), T, collect_diagnostics=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, aborted = run_cell(problem, OptimizerKind.SGD, hp, T, seeds, recorder)
        traces = [run_trial(problem, OptimizerKind.SGD, hp, T, seed,
                            collect_diagnostics=True) for seed in seeds]
    assert len({trace.t.size for trace in traces if trace.aborted}) > 1
    for s, (seed, trace) in enumerate(zip(seeds, traces)):
        assert aborted[s] == trace.aborted
        assert_same_trace(recorder.trace(s, seed, OptimizerKind.SGD, hp), trace)


@pytest.mark.parametrize("diagnostics", [False, True])
def test_chunked_trace_files_match_per_seed_trials(diagnostics, tmp_path, monkeypatch):
    # a budget of two seeds' columns splits the five seeds into chunks 2, 2, 1
    T = 60
    columns = 5 if diagnostics else 4
    monkeypatch.setattr(harness, "_TRACE_VALUES", 2 * T * columns + 1)
    spec = ExperimentSpec(
        problem_name="synthetic_logistic", problem_params=PROBLEMS["synthetic_logistic"],
        optimizers=[OptimizerKind.SIGNSTORM, OptimizerKind.L2_NORMALIZED_STORM],
        T_grid=[T], n_seeds=5, delta=0.1, param_mode="practical", master_seed=23,
        collect_diagnostics=diagnostics)
    report = run_experiment(spec, max_workers=1, trace_dir=str(tmp_path / "traces"))
    assert report.to_json() == run_experiment(spec, max_workers=1).to_json()
    problem = spec.build_problem()
    for oi, kind in enumerate(spec.optimizers):
        hp = harness.resolve_hyperparams(spec, problem, kind, T)
        for si in range(spec.n_seeds):
            trace = run_trial(problem, kind, hp, T, derive_seed(23, oi, 0, si),
                              collect_diagnostics=diagnostics)
            expected = tmp_path / "expected.csv"
            write_trace_csv(trace, str(expected))
            written = tmp_path / "traces" / f"{kind.value}_T{T}_s{si}.csv"
            assert written.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("block_values", [None, 40])
@pytest.mark.parametrize("kind", list(OptimizerKind))
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_diagnosed_runs_match_per_seed_trials(name, kind, block_values, monkeypatch):
    # run_trial's own loop is the reference, so the diagnostics engine is
    # not checked against itself
    if block_values is not None:
        monkeypatch.setattr(harness, "_PRESAMPLE_VALUES", block_values)
    problem = make_problem(name, PROBLEMS[name])
    hp = (HyperParams.adam_defaults(0.05) if kind is OptimizerKind.ADAM
          else HyperParams(eta=0.05, beta1=0.8, beta2=0.5))
    seeds = [derive_seed(24, s) for s in range(3)]
    recorder = DiagnosticRecorder(len(seeds), 150, problem.d)
    run_cell(problem, kind, hp, 150, seeds, recorder)
    for s, seed in enumerate(seeds):
        run = recorder.run(s, seed, kind, hp)
        trace = run_trial(problem, kind, hp, 150, seed, collect_diagnostics=True)
        assert same_bits(run.step_l2, trace.step_l2)
        assert same_bits([np.sum(np.abs(eps)) for eps in run.trace.eps], trace.eps_l1)
        assert same_bits([np.add.reduce(np.abs(g)) for g in run.grad_exact],
                         trace.grad_l1)
