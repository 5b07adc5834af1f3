import dataclasses
import functools
import math
import re
import tracemalloc
import types
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from signstorm import (
    CheckedRun,
    CheckResult,
    DiagnosticRun,
    DimensionMismatch,
    FrequencyReport,
    HyperParams,
    MdsKind,
    NonFiniteValue,
    OptimizerKind,
    OutOfRange,
    PreconditionNotMet,
    SeedRecord,
    check_seed_by_seed,
    decomposition_check,
    epsilon_bound_frequency,
    epsilon_envelope,
    estimator_ratio_check,
    lemma1_montecarlo,
    movement_bound_check,
    noisy_quadratic,
    representation_check,
    run_cell,
    run_with_diagnostics,
    sign_dichotomy_frequency,
)
from signstorm import diagnostics
from signstorm.diagnostics import _escaped_paths, _geometric_sums
from signstorm.optim import STORM_FAMILY, GradientPair, _guarded_ratio, storm_decomposition
from signstorm.rngutil import make_rng
from signstorm.theory import c_rho


def quadratic(d=4, sigma=0.5, h=1.0):
    return noisy_quadratic(d, np.full(d, h), np.full(d, sigma),
                           np.linspace(0.8, 1.4, d))


def envelope_of(p, hp, T, delta):
    """The epsilon envelope of a diagnosed run of problem p."""
    return epsilon_envelope(hp, p.constants.L_vec, p.constants.sigma_vec, T, delta)


def diagnosed_chunk(p, hp, T, seeds, kind=OptimizerKind.SIGNSTORM):
    """The DiagnosticRun of a diagnosed call whose seeds fit one chunk."""
    [(rows, run)] = run_cell(p, kind, hp, T, seeds,
                             functools.partial(DiagnosticRun, d=p.d, hp=hp, kind=kind))
    assert rows.tolist() == list(range(len(seeds)))
    return run


@dataclass
class EpsilonTrace:
    """A frozen copy of the per-seed record the checkers read before the
    stacked ``DiagnosticRun``: one seed's (T, d) xi, eps and Z."""

    xi: np.ndarray
    eps: np.ndarray
    z: np.ndarray

    @property
    def eps0(self) -> np.ndarray:
        return self.xi[0]

    @property
    def horizon(self) -> int:
        return self.xi.shape[0]


def check_trace(trace, beta1):
    return representation_check(trace.xi, trace.eps, trace.z, beta1)


def trace_from_recurrence(xi, z, beta1):
    """Build eps via the step recurrence; the checker must reproduce it."""
    T, d = xi.shape
    eps = np.empty((T, d))
    prev = xi[0]  # eps_0 = xi_1
    for t in range(T):
        prev = beta1 * prev + beta1 * z[t] + (1 - beta1) * xi[t]
        eps[t] = prev
    return EpsilonTrace(xi=xi, eps=eps, z=z)


class TestRunWithDiagnostics:
    def test_definitions_hold(self):
        p = quadratic()
        hp = HyperParams(eta=0.05, beta1=0.9, beta2=0.5)
        records = list(run_with_diagnostics(p, hp, 50, [3, 4]))
        assert len(records) == 2
        for seed, rec in zip([3, 4], records):
            # in seed order: each record is its seed's one-seed run
            assert rec.m.tobytes() == next(run_with_diagnostics(p, hp, 50, [seed])).m.tobytes()
            assert (rec.kind, rec.hp) == (OptimizerKind.SIGNSTORM, hp)
            assert rec.m.shape == (50, 4) and rec.step_l2.shape == (50,)
            assert np.array_equal(rec.z[0], np.zeros(4))
            np.testing.assert_array_equal(rec.xi, rec.g_curr - rec.grad_exact)
            # eps_t = m_t - grad F(x_t) by construction
            np.testing.assert_array_equal(rec.eps, rec.m - rec.grad_exact)
            # first-step estimator equals the first sampled gradient
            np.testing.assert_array_equal(rec.m[0], rec.xi[0] + rec.grad_exact[0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_nonfinite(self):
        # gradients near 1e300 overflow v = m^2 within a few sign steps
        p = quadratic(sigma=0.0)
        hp = HyperParams(eta=1e300, beta1=0.0, beta2=0.0)
        with pytest.raises(NonFiniteValue, match="NaN/Inf"):
            list(run_with_diagnostics(p, hp, 50, [1]))

    def test_lowest_index_aborted_seed_raises(self, monkeypatch):
        # chunks of seeds 0-1 and 2-3: seed 3 aborts first, but seed 2 has
        # the lower index; no record of the second chunk is yielded
        def run_cell(problem, kind, hp, T, seeds, recorder):
            yield np.arange(2), recorder(2, T)
            run = recorder(2, T)
            run.done[:] = [2, 0]
            run.abort_reasons[:] = ["second", "third"]
            yield np.arange(2, 4), run

        monkeypatch.setattr(diagnostics, "run_cell", run_cell)
        records = run_with_diagnostics(quadratic(d=2), HyperParams(eta=0.1, beta1=0.5, beta2=0.0),
                                       5, list(range(4)))
        assert [next(records), next(records)]
        with pytest.raises(NonFiniteValue, match="^second$"):
            next(records)


def per_t_representation(eps_trace, beta1, tol=1e-6):
    """The representation check as a loop over t, each t's sums reduced
    along axis 0 (pairwise at d = 1): the reference for the one-pass check."""
    T = eps_trace.horizon
    eps0 = eps_trace.eps0
    scale = tol * (1.0 + float(np.max(np.abs(eps_trace.eps))))
    worst_ratio = 0.0
    worst_t = 1
    for t in range(1, T + 1):
        weights = beta1 ** np.arange(t - 1, -1, -1, dtype=np.float64)
        rhs = (beta1 ** t * eps0
               + beta1 * np.add.reduce(weights[:, None] * eps_trace.z[:t], axis=0)
               + (1.0 - beta1) * np.add.reduce(weights[:, None] * eps_trace.xi[:t], axis=0))
        err = float(np.max(np.abs(eps_trace.eps[t - 1] - rhs)))
        if err / scale > worst_ratio:
            worst_ratio = err / scale
            worst_t = t
    return worst_ratio <= 1.0, worst_ratio, worst_t


def one_pass_over_s(eps_trace, beta1, tol=1e-6):
    """A frozen copy of the representation check as it summed before its
    lag loop, one pass over s with a repeated (T, 2d) weights array:
    the bit-for-bit reference for the lag loop.  Returns (acc, passed,
    worst_ratio, worst_t)."""
    T, d = eps_trace.xi.shape
    scale = tol * (1.0 + float(np.max(np.abs(eps_trace.eps))))
    zx = np.concatenate([eps_trace.z, eps_trace.xi], axis=1)
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
    ratio[~(ratio > 0.0)] = 0.0
    worst = int(np.argmax(ratio))
    return acc, float(ratio[worst]) <= 1.0, float(ratio[worst]), worst + 1


class TestMovementBound:
    def test_sign_case_bound_attained(self):
        # beta2=0, d=4, eta=0.1: bound is 0.2, attained when all coordinates move
        p = quadratic(sigma=0.0)
        hp = HyperParams(eta=0.1, beta1=0.0, beta2=0.0)
        rec = next(run_with_diagnostics(p, hp, 30, [1]))
        res = movement_bound_check(rec.step_l2, hp, d=4)
        assert res.passed
        assert res.worst_ratio == pytest.approx(1.0, abs=1e-12)
        assert np.max(rec.step_l2) == pytest.approx(0.2, rel=1e-12)

    @pytest.mark.parametrize("beta2", [0.0, 0.5, 0.81])
    def test_random_runs_never_violate(self, beta2):
        p = quadratic()
        hp = HyperParams(eta=0.03, beta1=0.9, beta2=beta2)
        rec = next(run_with_diagnostics(p, hp, 2000, [7]))
        res = movement_bound_check(rec.step_l2, hp, d=4)
        assert res.passed
        assert res.worst_ratio <= 1.0 + 1e-9

    def test_guarded_domain_refused(self):
        hp = HyperParams(eta=0.1, beta1=0.5, beta2=0.0, eps_guard=1e-8)
        with pytest.raises(PreconditionNotMet):
            movement_bound_check(np.array([0.1]), hp, d=4)

    def test_fabricated_violation_detected(self):
        hp = HyperParams(eta=0.1, beta1=0.5, beta2=0.0)
        steps = np.array([0.1, 0.2 * (1 + 1e-6), 0.05])
        res = movement_bound_check(steps, hp, d=4)
        assert not res.passed
        assert res.worst_t == 2

    def test_per_step_schedule_uses_eta_t(self):
        from signstorm import Schedule
        hp = HyperParams(eta=0.1, beta1=0.5, beta2=0.0,
                         schedule=Schedule.PER_STEP_SQRT_T)
        bound_t3 = hp.step_size(3) * 2.0
        steps = np.array([0.2, 0.1, bound_t3 * 0.999])
        assert movement_bound_check(steps, hp, d=4).passed


class TestRepresentation:
    def test_beta1_zero_collapses_to_xi(self):
        rng = np.random.default_rng(0)
        xi = rng.standard_normal((20, 3))
        z = rng.standard_normal((20, 3))
        z[0] = 0
        res = representation_check(xi, xi.copy(), z, beta1=0.0)
        assert res.passed
        assert res.worst_ratio < 1e-9

    def test_three_step_hand_case(self, monkeypatch):
        xi = np.array([[0.3], [-0.2], [0.5]])
        z = np.array([[0.0], [0.1], [-0.4]])
        trace = trace_from_recurrence(xi, z, beta1=0.5)
        np.testing.assert_allclose(trace.eps.ravel(), [0.3, 0.1, 0.1], atol=1e-12)
        monkeypatch.setattr(diagnostics, "_REPRESENTATION_TOL", 1e-12)
        res = check_trace(trace, beta1=0.5)
        assert res.passed

    def test_long_noisy_run(self):
        p = quadratic(d=4)
        hp = HyperParams(eta=0.01, beta1=0.99, beta2=0.0)
        rec = next(run_with_diagnostics(p, hp, 1000, [5]))
        res = representation_check(rec.xi, rec.eps, rec.z, beta1=0.99)
        assert res.passed

    def test_perturbed_trace_fails(self):
        rng = np.random.default_rng(1)
        xi = rng.standard_normal((30, 2))
        z = rng.standard_normal((30, 2))
        z[0] = 0
        trace = trace_from_recurrence(xi, z, beta1=0.7)
        trace.eps[17, 1] += 1e-3
        assert not check_trace(trace, beta1=0.7).passed

    @settings(max_examples=300, deadline=None)
    @given(T=st.integers(1, 60), d=st.integers(1, 6),
           beta1=st.just(0.0) | st.sampled_from([0.5, 0.9, 0.99]) | st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1), n_zero=st.integers(0, 3),
           perturb=st.booleans())
    @example(T=1, d=3, beta1=0.9, seed=0, n_zero=0, perturb=False)
    @example(T=1, d=1, beta1=0.0, seed=0, n_zero=1, perturb=True)
    @example(T=25, d=4, beta1=0.0, seed=1, n_zero=2, perturb=False)
    def test_one_pass_matches_per_t_loop(self, T, d, beta1, seed, n_zero, perturb):
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal((T, d))
        z = rng.standard_normal((T, d))
        z[0] = 0
        for row in rng.integers(0, T, size=n_zero):
            xi[row] = 0.0
            z[row] = 0.0
        trace = trace_from_recurrence(xi, z, beta1)
        if perturb or d == 1:
            # errors far above rounding, so a changed summation order
            # moves the worst ratio only in its last bits
            trace.eps += rng.standard_normal((T, d))
        res = check_trace(trace, beta1)
        passed, worst_ratio, worst_t = per_t_representation(trace, beta1)
        if d >= 2:
            # the same products added in the same order: bit for bit
            assert (res.passed, res.worst_ratio, res.worst_t) == (passed, worst_ratio, worst_t)
        else:
            assert res.worst_ratio == pytest.approx(worst_ratio, rel=1e-12, abs=0.0)
            assert res.passed == passed

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, 0 * inf
    @settings(max_examples=300, deadline=None)
    @given(T=st.integers(1, 40), d=st.integers(1, 5),
           beta1=st.just(0.0) | st.sampled_from([0.5, 0.9, 1.0]) | st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1), n_zero=st.integers(0, 3),
           specials=st.lists(st.tuples(st.sampled_from(["xi", "z", "eps"]),
                                       st.integers(0, 10**6), st.integers(0, 10**6),
                                       st.sampled_from([math.nan, math.inf, -math.inf])),
                             max_size=3),
           perturb=st.booleans())
    @example(T=1, d=1, beta1=0.9, seed=0, n_zero=0, specials=[], perturb=False)
    @example(T=2, d=1, beta1=0.0, seed=0, n_zero=0, specials=[], perturb=True)
    @example(T=2, d=3, beta1=0.0, seed=1, n_zero=1, specials=[], perturb=False)
    @example(T=30, d=1, beta1=0.9, seed=2, n_zero=0, specials=[], perturb=True)
    @example(T=12, d=2, beta1=0.7, seed=3, n_zero=2,
             specials=[("z", 4, 1, math.nan), ("xi", 7, 0, math.inf)], perturb=False)
    def test_lag_loop_matches_one_pass_loop_bit_for_bit(self, T, d, beta1, seed, n_zero,
                                                        specials, perturb):
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal((T, d))
        z = rng.standard_normal((T, d))
        z[0] = 0
        for row in rng.integers(0, T, size=n_zero):
            xi[row] = 0.0
            z[row] = 0.0
        trace = trace_from_recurrence(xi, z, beta1)
        if perturb:
            trace.eps += rng.standard_normal((T, d))
        for name, row, col, value in specials:
            getattr(trace, name)[row % T, col % d] = value
        acc, passed, worst_ratio, worst_t = one_pass_over_s(trace, beta1)
        zx = np.concatenate([trace.z, trace.xi], axis=1)
        sums = _geometric_sums(zx, beta1)
        # every bit of every number, signed zeros included, and NaN where
        # the reference has NaN.  A NaN's own sign is not pinned: where two
        # NaNs meet, which one an add keeps depends on whether the element
        # falls in numpy's SIMD body or its scalar tail.
        nan = np.isnan(acc)
        assert np.array_equal(np.isnan(sums), nan)
        assert sums[~nan].tobytes() == acc[~nan].tobytes()
        res = check_trace(trace, beta1)
        assert (res.passed, res.worst_ratio, res.worst_t) == (passed, worst_ratio, worst_t)


class TestDecompositionAndRatio:
    def test_decomposition_on_run(self):
        p = quadratic()
        hp = HyperParams(eta=0.02, beta1=0.9, beta2=0.81)
        res = decomposition_check(next(run_with_diagnostics(p, hp, 500, [11])))
        assert res.passed

    def test_decomposition_needs_storm_kind(self):
        p = quadratic()
        hp = HyperParams(eta=0.02, beta1=0.9, beta2=0.81)
        run = run_with_diagnostics(p, hp, 10, [11], kind=OptimizerKind.GENERALIZED_SIGN_SGD)
        with pytest.raises(PreconditionNotMet):
            decomposition_check(next(run))

    def test_ratio_cap(self):
        p = quadratic()
        for beta2 in (0.0, 0.5, 0.9):
            hp = HyperParams(eta=0.02, beta1=0.9, beta2=beta2)
            res = estimator_ratio_check(next(run_with_diagnostics(p, hp, 300, [13])))
            assert res.passed
            assert res.worst_ratio <= 1.0 + 1e-12


class TestEpsilonBound:
    def test_noiseless_momentum_free_never_violates(self):
        p = quadratic(sigma=0.0)
        hp = HyperParams(eta=0.05, beta1=0.0, beta2=0.0)
        rec = next(run_with_diagnostics(p, hp, 200, [2]))
        envelope = epsilon_envelope(hp, p.constants.L_vec, p.constants.sigma_vec, 200, 0.1)
        rep = epsilon_bound_frequency(rec.eps, envelope, 0.1)
        assert rep.n_violations == 0
        assert rep.passed

    def test_envelope_first_term_dominates_early(self):
        # at t=1 with beta1 close to 1 the decayed-noise term keeps bound >= sigma_j
        hp = HyperParams(eta=1e-6, beta1=0.999, beta2=0.0)
        sigma = np.array([0.5, 2.0])
        env = epsilon_envelope(hp, np.array([1.0, 1.0]), sigma, 5, 0.05)
        assert np.all(env[0] >= 0.999 * sigma)

    def test_envelope_log_clamp(self):
        hp = HyperParams(eta=0.01, beta1=0.9, beta2=0.0)
        L, s = np.ones(2), np.ones(2)
        a = epsilon_envelope(hp, L, s, 10, 0.9)
        b = epsilon_envelope(hp, L, s, 10, 1.0 / math.e)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_multi_run_aggregation(self):
        p = quadratic()
        hp = HyperParams(eta=0.01, beta1=0.9, beta2=0.0)
        rep = check_seed_by_seed(run_with_diagnostics(p, hp, 100, list(range(5))),
                                 envelope_of(p, hp, 100, 0.05), 0.05)["epsilon_bound"]
        assert rep.n_total == 5 * 100 * 4
        assert rep.passed


def dichotomy(p, hp, T, seeds, delta=0.05):
    """The sign dichotomy's report on a fresh diagnosed run of ``seeds``."""
    return check_seed_by_seed(run_with_diagnostics(p, hp, T, seeds),
                              envelope_of(p, hp, T, delta), delta)["sign_dichotomy"]


class TestSignDichotomy:
    def test_exact_gradient_regime_no_violations(self):
        # sigma=0 and beta1=0, beta2=0: m equals grad F, ratio is 1 >= 1/5
        p = quadratic(sigma=0.0)
        hp = HyperParams(eta=0.05, beta1=0.0, beta2=0.0)
        rec = next(run_with_diagnostics(p, hp, 200, [4]))
        envelope = epsilon_envelope(hp, p.constants.L_vec, p.constants.sigma_vec, 200, 0.05)
        assert sign_dichotomy_frequency(rec, envelope, 0.05).n_violations == 0

    def test_near_stationary_branch_one(self):
        # start at the optimum: gradients stay tiny, branch one carries everything
        p = noisy_quadratic(3, np.ones(3), 0.2 * np.ones(3), np.zeros(3))
        hp = HyperParams(eta=0.001, beta1=0.9, beta2=0.0)
        assert dichotomy(p, hp, 100, [6]).passed

    def test_noisy_runs_under_budget(self):
        p = quadratic()
        hp = HyperParams(eta=0.01, beta1=0.95, beta2=0.5)
        assert dichotomy(p, hp, 150, list(range(10))).passed

    def test_guard_refused(self):
        p = quadratic()
        hp = HyperParams(eta=0.01, beta1=0.9, beta2=0.0, eps_guard=1e-8)
        rec = next(run_with_diagnostics(p, hp, 10, [1]))
        with pytest.raises(PreconditionNotMet):
            sign_dichotomy_frequency(rec, np.ones((10, p.d)), 0.05)


def test_fold_calls_each_checker_per_seed_and_builds_no_envelope(monkeypatch):
    # the fold looks checkers up by their module names when it runs, so a
    # patched name, as a per-layer trace installs it, sees every call; the
    # caller builds the envelope, once for every seed
    p = quadratic()
    hp = HyperParams(eta=0.01, beta1=0.95, beta2=0.5)
    envelope_30 = envelope_of(p, hp, 30, 0.05)
    calls, built = [], []
    checker, envelope = diagnostics.representation_check, diagnostics.epsilon_envelope

    def counted_checker(*args, **kwargs):
        calls.append(args[0].shape)
        return checker(*args, **kwargs)

    def counted_envelope(*args):
        built.append(args[3])
        return envelope(*args)

    monkeypatch.setattr(diagnostics, "representation_check", counted_checker)
    monkeypatch.setattr(diagnostics, "epsilon_envelope", counted_envelope)
    results = check_seed_by_seed(run_with_diagnostics(p, hp, 30, [5, 6, 7]), envelope_30, 0.05)
    assert calls == [(30, p.d)] * 3
    assert built == []
    assert results["epsilon_bound"].n_total == results["sign_dichotomy"].n_total == 3 * 30 * p.d


def stacked_record():
    """A diagnosed run of two seeds, T = 5 and d = 3, and its L and sigma."""
    p = quadratic(d=3)
    hp = HyperParams(eta=0.02, beta1=0.9, beta2=0.5)
    return diagnosed_chunk(p, hp, 5, [1, 2]), p.constants


# each checker called on the stacked record, and the one-seed shape its
# error names
STACKED_CALLS = {
    "movement_bound": (lambda run, env: movement_bound_check(run.step_l2, run.hp, 3), "(T,)"),
    "representation": (lambda run, env: representation_check(
        run.g_curr - run.grad_exact, run.m - run.grad_exact, run.g_curr, run.hp.beta1),
        "(T, d)"),
    "storm_decomposition": (lambda run, env: decomposition_check(run), "(T, d)"),
    "estimator_ratio": (lambda run, env: estimator_ratio_check(run), "(T, d)"),
    "epsilon_bound": (lambda run, env: epsilon_bound_frequency(run.m - run.grad_exact, env,
                                                               0.05), "(T, d)"),
    "sign_dichotomy": (lambda run, env: sign_dichotomy_frequency(run, env, 0.05), "(T, d)"),
}


@pytest.mark.parametrize("name", list(STACKED_CALLS))
def test_stacked_argument_raises_dimension_mismatch(name):
    run, consts = stacked_record()
    envelope = epsilon_envelope(run.hp, consts.L_vec, consts.sigma_vec, 5, 0.05)
    call, shape = STACKED_CALLS[name]
    with pytest.raises(DimensionMismatch, match=re.escape(f"one seed's {shape} array")):
        call(run, envelope)
    # every checker the fold runs has a stacked case here
    assert set(STACKED_CALLS) == set(diagnostics.RECORD_CHECKS)


@pytest.mark.parametrize("name", list(STACKED_CALLS))
def test_argument_short_of_an_axis_raises_dimension_mismatch(name):
    # the guard asks for exactly one seed's axes: one seed with its d axis
    # dropped, (T,) arrays and a scalar step norm, is refused too
    run, consts = stacked_record()
    view = run.seed_view(0)
    short = dataclasses.replace(view, step_l2=view.step_l2[0], **{
        field: getattr(view, field)[:, 0] for field in RECORD_FIELDS if field != "step_l2"})
    envelope = epsilon_envelope(run.hp, consts.L_vec, consts.sigma_vec, 5, 0.05)[:, 0]
    call, shape = STACKED_CALLS[name]
    with pytest.raises(DimensionMismatch, match=re.escape(f"one seed's {shape} array")):
        call(short, envelope)


def test_fold_stops_calling_a_checker_once_its_precondition_fails(monkeypatch):
    # a precondition reads only the hyperparameters, shared by every seed:
    # the first seed's error stands for all, and later seeds skip the call
    p = quadratic()
    hp = HyperParams(eta=0.01, beta1=0.95, beta2=0.5, eps_guard=1e-8)
    calls = {"movement": 0, "representation": 0}
    movement, representation = diagnostics.movement_bound_check, diagnostics.representation_check

    def counted_movement(*args):
        calls["movement"] += 1
        return movement(*args)

    def counted_representation(*args):
        calls["representation"] += 1
        return representation(*args)

    monkeypatch.setattr(diagnostics, "movement_bound_check", counted_movement)
    monkeypatch.setattr(diagnostics, "representation_check", counted_representation)
    results = check_seed_by_seed(run_with_diagnostics(p, hp, 10, [5, 6, 7]),
                                 envelope_of(p, hp, 10, 0.05), 0.05)
    assert calls == {"movement": 1, "representation": 3}
    for name in ("movement_bound", "estimator_ratio", "sign_dichotomy"):
        assert isinstance(results[name], PreconditionNotMet)
        assert "eps_guard = 0" in str(results[name])
    assert isinstance(results["representation"], diagnostics.CheckResult)


# A frozen copy of the per-seed path the checkers took before every seed
# shared one DiagnosticRun: one record per seed with its own EpsilonTrace,
# each deterministic checker run per seed and reduced with max (which keeps
# the first of equal ratios), and the frequency counts summed over a list.

@dataclass
class FrozenRun:
    trace: EpsilonTrace
    m: np.ndarray
    v: np.ndarray
    grad_exact: np.ndarray
    step_l2: np.ndarray
    g_curr: np.ndarray
    g_prev: np.ndarray
    hp: HyperParams
    seed: int
    kind: OptimizerKind


def frozen_recorder_run(rec, s, seed, kind, hp):
    n = rec.horizon[s]
    if rec.done[s] < n:
        raise NonFiniteValue(rec.abort_reasons[s])
    m, grad_exact = rec.m[s, :n], rec.grad_exact[s, :n]
    g_curr, g_prev = rec.g_curr[s, :n], rec.g_prev[s, :n]
    z = np.zeros_like(g_curr)
    z[1:] = (g_curr[1:] - g_prev[1:]) + (grad_exact[:-1] - grad_exact[1:])
    return FrozenRun(EpsilonTrace(g_curr - grad_exact, m - grad_exact, z),
                     m, rec.v[s, :n], grad_exact, rec.step_l2[s, :n], g_curr, g_prev, hp,
                     seed, kind)


def frozen_movement(run, d):
    hp = run.hp
    if hp.eps_guard != 0.0:
        raise PreconditionNotMet("movement bound is stated for eps_guard = 0")
    T = run.step_l2.shape[0]
    ratios = run.step_l2 / (hp.step_sizes(T) * math.sqrt(d / (1.0 - hp.beta2)))
    worst = int(np.argmax(ratios))
    worst_ratio = float(ratios[worst])
    return worst_ratio <= 1.0 + 1e-9, worst_ratio, worst + 1


def frozen_representation(run, tol=1e-6):
    eps_trace, beta1 = run.trace, run.hp.beta1
    T, d = eps_trace.xi.shape
    scale = tol * (1.0 + float(np.max(np.abs(eps_trace.eps))))
    acc = _geometric_sums(np.concatenate([eps_trace.z, eps_trace.xi], axis=1), beta1)
    decay = np.array([beta1 ** t for t in range(1, T + 1)])
    rhs = decay[:, None] * eps_trace.eps0 + beta1 * acc[:, :d] + (1.0 - beta1) * acc[:, d:]
    ratio = np.max(np.abs(eps_trace.eps - rhs), axis=1) / scale
    ratio[~(ratio > 0.0)] = 0.0
    worst = int(np.argmax(ratio))
    return float(ratio[worst]) <= 1.0, float(ratio[worst]), worst + 1


def frozen_decomposition(run):
    if run.kind not in STORM_FAMILY:
        raise PreconditionNotMet("decomposition applies to the variance-reduced estimator")
    T = run.m.shape[0]
    if T < 2:
        return True, 0.0, 1
    pair = GradientPair(run.g_curr[1:], run.g_prev[1:])
    part_i, part_ii = storm_decomposition(run.m[:-1], pair, run.hp.beta1)
    err = np.abs((part_i + part_ii) - run.m[1:])
    ratio = err / (1e-12 * (1.0 + np.abs(run.m[1:])))
    flat = int(np.argmax(ratio))
    worst_ratio = float(ratio.flat[flat])
    return worst_ratio <= 1.0, worst_ratio, flat // run.m.shape[1] + 2


def frozen_estimator_ratio(run):
    if run.hp.eps_guard != 0.0:
        raise PreconditionNotMet("ratio cap is stated for eps_guard = 0")
    ratio = np.abs(_guarded_ratio(run.m, run.v, 0.0))
    cap = 1.0 / math.sqrt(1.0 - run.hp.beta2)
    worst_flat = int(np.argmax(ratio))
    worst = float(ratio.flat[worst_flat] / cap)
    return worst <= 1.0 + 1e-12, worst, worst_flat // run.m.shape[1] + 1


def frozen_worst(fn, runs):
    """The per-seed result with the first largest worst ratio, as np.argmax
    orders them: NaN counts as largest, which Python's max does not."""
    results = [fn(run) for run in runs]
    return results[int(np.argmax([res[1] for res in results]))]


def frozen_epsilon_count(runs, hp, L_vec, sigma_vec, delta):
    violations = total = 0
    for run in runs:
        envelope = epsilon_envelope(hp, L_vec, sigma_vec, run.trace.horizon, delta)
        violations += int(np.sum(np.abs(run.trace.eps) > envelope))
        total += run.trace.eps.size
    return violations, total


def frozen_dichotomy_count(runs, L_vec, sigma_vec, delta):
    violations = total = 0
    for run in runs:
        hp = run.hp
        if hp.eps_guard != 0.0:
            raise PreconditionNotMet("dichotomy check is stated for eps_guard = 0")
        rho = hp.rho
        if not rho < 1.0:
            raise PreconditionNotMet(f"dichotomy check needs rho < 1, got {rho}")
        rhs = epsilon_envelope(hp, L_vec, sigma_vec, run.grad_exact.shape[0], delta)
        branch1 = c_rho(rho) * np.abs(run.grad_exact) < rhs
        ratio = np.abs(_guarded_ratio(run.m, run.v, 0.0))
        threshold = (1.0 - rho) / (5.0 * math.sqrt(1.0 - hp.beta2))
        branch2 = (np.sign(run.grad_exact) == np.sign(run.m)) & (ratio >= threshold)
        violations += int(np.sum(~(branch1 | branch2)))
        total += run.m.size
    return violations, total


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (PreconditionNotMet, ValueError) as exc:
        return type(exc), str(exc)


def bits(res):
    """A checker outcome with every float as its bits."""
    return tuple(v.hex() if isinstance(v, float) else v for v in res)


def replay_in_blocks(run, L_vec, sigma_vec, delta, steps):
    """The results of a filled DiagnosticRun's rows, recorded step by step
    into a CheckedRun that folds blocks of ``steps`` steps."""
    S, T, d = run.m.shape
    with mock.patch.object(diagnostics, "_BLOCK_VALUES", steps * S * d), \
            mock.patch.object(diagnostics, "_BLOCK_STEPS", 1):
        checked = CheckedRun(S, T, d, run.hp, run.kind, L_vec, sigma_vec, delta)
    assert checked.m.shape[1] == min(steps, T) + 1
    for t in range(1, T + 1):
        # a step whose one nonzero coordinate is the recorded norm
        x = np.zeros((S, d))
        x[:, 0] = run.step_l2[:, t - 1]
        state = types.SimpleNamespace(m=run.m[:, t - 1], v=run.v[:, t - 1], x=x,
                                      prev_x=np.zeros((S, d)))
        grads = GradientPair(run.g_curr[:, t - 1], run.g_prev[:, t - 1] if t > 1 else None)
        with np.errstate(all="ignore"):
            checked.record(t, slice(0, S), state, grads, run.grad_exact[:, t - 1], None, None)
    return checked.finish()


@pytest.mark.parametrize("n_seeds, T, steps", [(6, 2000, 273), (102, 2000, 256),
                                               (102, 100, 100), (1, 10**5, 1638)])
def test_block_takes_the_value_budget_but_at_least_the_step_floor(n_seeds, T, steps):
    # a block holds about _BLOCK_VALUES values of its seeds' d = 10
    # coordinates, but a chunk of many seeds still checks _BLOCK_STEPS
    # steps at a time (a full presample chunk has 102 seeds at d = 10), so
    # the checker calls a seed takes do not grow with its chunk's seeds
    hp = HyperParams(eta=0.01, beta1=0.9, beta2=0.5)
    run = CheckedRun(n_seeds, T, 10, hp, OptimizerKind.SIGNSTORM, np.ones(10), np.ones(10),
                     0.05)
    assert run.m.shape == (n_seeds, steps + 1, 10)


def assert_fold_matches_frozen(run, L_vec, sigma_vec, delta=0.05):
    """check_seed_by_seed against the frozen per-seed path: the verdict,
    the worst ratio's bits and its t, the counts, or the same error; and
    the fold of the same rows in blocks of 1 step, 2 steps and all T
    against check_seed_by_seed."""
    kind, hp = run.kind, run.hp
    S, T, d = run.m.shape
    runs = [frozen_recorder_run(run, s, s, kind, hp) for s in range(S)]
    frozen = {
        "movement_bound": outcome(frozen_worst, lambda r: frozen_movement(r, d), runs),
        "representation": outcome(frozen_worst, frozen_representation, runs),
        "storm_decomposition": outcome(frozen_worst, frozen_decomposition, runs),
        "estimator_ratio": outcome(frozen_worst, frozen_estimator_ratio, runs),
        "epsilon_bound": outcome(frozen_epsilon_count, runs, hp, L_vec, sigma_vec, delta),
        "sign_dichotomy": outcome(frozen_dichotomy_count, runs, L_vec, sigma_vec, delta),
    }
    folded = check_seed_by_seed((run.seed_view(s) for s in range(S)),
                                epsilon_envelope(hp, L_vec, sigma_vec, T, delta), delta)
    assert list(folded) == list(frozen)
    for name, res in folded.items():
        if isinstance(res, Exception):
            res = type(res), str(res)
        elif isinstance(res, diagnostics.FrequencyReport):
            res = res.n_violations, res.n_total
        else:
            res = res.passed, res.worst_ratio, res.worst_t
        assert bits(res) == bits(frozen[name]), name
    for steps in sorted({1, 2, T}):
        in_blocks = replay_in_blocks(run, L_vec, sigma_vec, delta, steps)
        assert list(in_blocks) == list(folded)
        for name, res in folded.items():
            assert merged_bits(in_blocks[name]) == merged_bits(res), (steps, name)
    return folded


RECORD_FIELDS = ("m", "v", "grad_exact", "g_curr", "g_prev", "step_l2")
# the synthetic records' parameters
SYNTHETIC = dict(S=st.integers(1, 5), T=st.integers(1, 12), d=st.integers(1, 4),
                 beta1=st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 0.99),
                 beta2=st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 0.99),
                 coarse=st.booleans(), copies=st.integers(0, 4),
                 seed=st.integers(0, 2**32 - 1))


def synthetic_record(S, T, d, beta1, beta2, coarse, copies, seed):
    """A filled DiagnosticRun of S seeds, with L_vec and sigma_vec: coarse
    dyadic values tie ratios within and across seeds, and the last
    ``copies`` seeds repeat the first ones."""
    rng = np.random.default_rng(seed)
    hp = HyperParams(eta=0.05, beta1=beta1, beta2=beta2)
    recorder = DiagnosticRun(S, T, d, hp, OptimizerKind.SIGNSTORM)
    bound = 0.05 * math.sqrt(d / (1.0 - beta2))
    if coarse:
        # a few dyadic values: equal ratios within and across seeds
        def draw(shape):
            return rng.integers(-2, 3, shape) * 0.5

        recorder.v[:] = rng.integers(0, 3, (S, T, d)) * 0.25
        recorder.step_l2[:] = rng.integers(0, 3, (S, T)) * 0.5 * bound
    else:
        def draw(shape):
            return rng.standard_normal(shape)

        recorder.v[:] = rng.standard_normal((S, T, d)) ** 2
        recorder.step_l2[:] = rng.random((S, T)) * 1.5 * bound
    for name in ("m", "grad_exact", "g_curr", "g_prev"):
        getattr(recorder, name)[:] = draw((S, T, d))
    recorder.g_prev[:, 0] = 0.0
    # the last seeds repeat the first ones: ties across seeds
    for s in range(max(0, S - copies), S):
        for name in RECORD_FIELDS:
            getattr(recorder, name)[s] = getattr(recorder, name)[s % max(1, S - copies)]
    L_vec, sigma_vec = rng.random(d) + 0.1, rng.random(d)
    return recorder, L_vec, sigma_vec


class TestFoldMatchesPerSeed:
    """The seed-by-seed fold against the frozen per-seed path."""

    @settings(max_examples=300, deadline=None)
    @given(**SYNTHETIC,
           nans=st.lists(st.tuples(st.sampled_from(RECORD_FIELDS), st.integers(0, 2**32 - 1)),
                         max_size=4),
           kind=st.sampled_from([OptimizerKind.SIGNSTORM, OptimizerKind.SGD]),
           eps_guard=st.sampled_from([0.0, 1e-8]))
    @example(S=1, T=1, d=1, beta1=0.0, beta2=0.0, coarse=True, copies=0, seed=0, nans=[],
             kind=OptimizerKind.SIGNSTORM, eps_guard=0.0)
    @example(S=3, T=2, d=1, beta1=0.5, beta2=0.25, coarse=True, copies=2, seed=1, nans=[],
             kind=OptimizerKind.SIGNSTORM, eps_guard=0.0)
    @example(S=4, T=2, d=3, beta1=0.0, beta2=0.5, coarse=False, copies=1, seed=2, nans=[],
             kind=OptimizerKind.SIGNSTORM, eps_guard=0.0)
    @example(S=5, T=12, d=4, beta1=0.9, beta2=0.0, coarse=True, copies=4, seed=3, nans=[],
             kind=OptimizerKind.SIGNSTORM, eps_guard=0.0)
    @example(S=4, T=3, d=2, beta1=0.5, beta2=0.25, coarse=True, copies=2, seed=1,
             nans=[("m", 5), ("v", 2), ("step_l2", 1)], kind=OptimizerKind.SIGNSTORM,
             eps_guard=0.0)
    @example(S=3, T=2, d=1, beta1=0.5, beta2=0.25, coarse=False, copies=0, seed=4,
             nans=[("grad_exact", 0), ("g_curr", 1)], kind=OptimizerKind.SGD, eps_guard=1e-8)
    def test_synthetic_records(self, S, T, d, beta1, beta2, coarse, copies, seed, nans,
                               kind, eps_guard):
        run, L_vec, sigma_vec = synthetic_record(S, T, d, beta1, beta2, coarse, copies, seed)
        run.kind, run.hp = kind, dataclasses.replace(run.hp, eps_guard=eps_guard)
        # NaN entries in a later seed than the first, where there is one
        for name, at in nans:
            row = getattr(run, name)[1 + at % (S - 1) if S > 1 else 0]
            row.flat[at % row.size] = np.nan
        assert_fold_matches_frozen(run, L_vec, sigma_vec)

    # two ratios one ulp apart that the cap sqrt(2) divides to one value: a
    # seed keeps the t of its larger ratio, of equal scaled ratios the first
    # seed's is kept, and the first NaN wins
    @pytest.mark.parametrize("rows, worst_t", [
        ([[0.0, 0.9000000000000001, 0.9000000000000002]], 3),
        ([[0.0, 0.9000000000000001, 0.0], [0.9000000000000002, 0.0, 0.0]], 2),
        ([[0.0, 1.0, 0.0], [np.nan, 0.0, 0.0], [0.0, np.nan, 2.0]], 1)])
    def test_ratios_that_scale_to_one_value_or_are_nan(self, rows, worst_t):
        assert 0.9000000000000001 / math.sqrt(2.0) == 0.9000000000000002 / math.sqrt(2.0)
        hp = HyperParams(eta=0.05, beta1=0.9, beta2=0.5)
        run = DiagnosticRun(len(rows), 3, 1, hp, OptimizerKind.SIGNSTORM)
        for name in ("grad_exact", "g_curr", "g_prev", "step_l2"):
            getattr(run, name)[:] = 0.0
        run.v[:] = 1.0
        run.m[:, :, 0] = rows
        folded = assert_fold_matches_frozen(run, np.ones(1), np.ones(1))
        assert folded["estimator_ratio"].worst_t == worst_t

    def test_block_fold_compares_unscaled_ratios(self):
        # the two largest ratios of one seed, in blocks of one step each,
        # divide by the cap sqrt(2) to one value: merged after the
        # division, the first (t = 2) would be kept; the fold merges the
        # ratios before it, as the whole-seed call's argmax finds t = 3
        hp = HyperParams(eta=0.05, beta1=0.9, beta2=0.5)
        run = DiagnosticRun(1, 3, 1, hp, OptimizerKind.SIGNSTORM)
        for name in ("grad_exact", "g_curr", "g_prev", "step_l2"):
            getattr(run, name)[:] = 0.0
        run.v[:] = 1.0
        run.m[0, :, 0] = [0.0, 0.9000000000000001, 0.9000000000000002]
        whole = estimator_ratio_check(run.seed_view(0))
        blocks = [estimator_ratio_check(run.seed_view(0, t, t + 1)) for t in range(3)]
        assert [b.worst_t for b in blocks] == [1, 2, 3] and whole.worst_t == 3
        assert blocks[1].worst_ratio == blocks[2].worst_ratio == whole.worst_ratio
        in_blocks = replay_in_blocks(run, np.ones(1), np.ones(1), 0.05, 1)
        assert merged_bits(in_blocks["estimator_ratio"]) == merged_bits(whole)

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("beta1", [0.0, 0.9])
    @pytest.mark.parametrize("T", [1, 2, 80])
    def test_diagnosed_runs(self, d, beta1, T):
        p = quadratic(d=d)
        hp = HyperParams(eta=0.02, beta1=beta1, beta2=0.5 if beta1 else 0.0)
        seeds = [11, 12, 13, 14]
        # one seed alone, then all of them stepped together
        for part in (seeds[:1], seeds):
            run = diagnosed_chunk(p, hp, T, part)
            assert_fold_matches_frozen(run, p.constants.L_vec, p.constants.sigma_vec)
            # a tight envelope, so that the counts are not all zero
            assert_fold_matches_frozen(run, 0.01 * p.constants.L_vec,
                                       0.01 * p.constants.sigma_vec)
        assert run.m.shape == (4, T, d)

    def test_seed_view_holds_views_of_one_seed(self):
        p = quadratic()
        hp = HyperParams(eta=0.02, beta1=0.9, beta2=0.5)
        run = diagnosed_chunk(p, hp, 20, [11, 12, 13])
        view = run.seed_view(1)
        assert isinstance(view, SeedRecord) and view.hp is hp and view.kind is run.kind
        for name in RECORD_FIELDS:
            assert getattr(view, name).base is getattr(run, name)
            assert np.array_equal(getattr(view, name), getattr(run, name)[1])
        alone = next(run_with_diagnostics(p, hp, 20, [12]))
        for name in ("xi", "eps", "z"):
            assert getattr(view, name).tobytes() == getattr(alone, name).tobytes()


def bracketings(results):
    """The merge of ``results`` under every bracketing that keeps their order."""
    if len(results) == 1:
        yield results[0]
        return
    for k in range(1, len(results)):
        for left in bracketings(results[:k]):
            for right in bracketings(results[k:]):
                yield diagnostics.merge(left, right)


def merged_bits(res):
    """A merged result as bits: the error's type and message, the counts, or
    the verdict with the worst ratio's bits and its t."""
    if isinstance(res, Exception):
        return type(res), str(res)
    if isinstance(res, FrequencyReport):
        return bits((res.name, res.n_total, res.n_violations, res.stated_bound))
    return bits((res.name, res.passed, res.worst_ratio, res.worst_t))


# per-seed worst ratios: NaN, zero and repeated values tie within a sequence
RATIOS = st.sampled_from([math.nan, 0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 4.0)
ERRORS = st.builds(lambda i: PreconditionNotMet(f"precondition {i}"), st.integers(0, 3))
CHECK_RESULTS = st.builds(lambda r, t: CheckResult("c", r <= 1.0, r, t), RATIOS,
                          st.integers(1, 9))
FREQUENCY_REPORTS = st.builds(lambda n, v: FrequencyReport("f", n, min(n, v), 0.3),
                              st.integers(0, 40), st.integers(0, 40))


class TestMerge:
    """diagnostics.merge, the seed fold's one rule, on per-seed results."""

    @settings(max_examples=300, deadline=None)
    @given(results=st.lists(CHECK_RESULTS | ERRORS, min_size=1, max_size=6)
           | st.lists(FREQUENCY_REPORTS | ERRORS, min_size=1, max_size=6))
    @example(results=[CheckResult("c", True, 0.5, 1), CheckResult("c", True, 0.5, 2)])
    @example(results=[CheckResult("c", True, 0.0, 3), CheckResult("c", False, math.nan, 1),
                      CheckResult("c", False, math.nan, 2), CheckResult("c", False, 2.0, 4)])
    @example(results=[FrequencyReport("f", 4, 1, 0.3), PreconditionNotMet("precondition 1"),
                      PreconditionNotMet("precondition 2")])
    def test_every_bracketing_gives_the_fold_bits(self, results):
        fold = None
        for res in results:
            fold = diagnostics.merge(fold, res)
        # the rules: the first error stays, counts add, and the first
        # largest worst ratio is kept, NaN counting as largest (np.argmax)
        errors = [res for res in results if isinstance(res, PreconditionNotMet)]
        if errors:
            expected = errors[0]
        elif isinstance(results[0], FrequencyReport):
            expected = FrequencyReport("f", sum(r.n_total for r in results),
                                       sum(r.n_violations for r in results), 0.3)
        else:
            expected = results[int(np.argmax([r.worst_ratio for r in results]))]
        assert merged_bits(fold) == merged_bits(expected)
        for res in bracketings(results):
            assert merged_bits(res) == merged_bits(fold)


def frozen_lemma1_violations(n_trials, T, delta, mds, seed):
    """The float64 loop the Lemma 1 simulation counted escapes with before
    Rademacher paths were summed as integer step counts."""
    if mds is MdsKind.RADEMACHER:
        R, sigma_sq = 1.0, 1.0
    else:
        R, sigma_sq = 1.0, 1.0 / 3.0
    log_term = max(1.0, math.log(1.0 / delta))
    sigma_seq = np.full(T, sigma_sq)
    bound = 3.0 * R * log_term + 3.0 * np.sqrt(np.cumsum(sigma_seq) * log_term)
    rng = make_rng(seed)
    violations = 0
    done = 0
    while done < n_trials:
        # any block size draws the same stream
        n = min(2000, n_trials - done)
        if mds is MdsKind.RADEMACHER:
            draws = rng.choice([-1.0, 1.0], size=(n, T))
        else:
            draws = rng.uniform(-1.0, 1.0, size=(n, T))
        paths = np.cumsum(draws, axis=1, out=draws)
        np.abs(paths, out=paths)
        violations += int(np.sum(np.any(paths > bound[None, :], axis=1)))
        done += n
    return violations


class TestLemma1:
    def test_rademacher_rarely_escapes(self):
        rep = lemma1_montecarlo(2000, 500, 0.05, MdsKind.RADEMACHER, seed=0)
        assert rep.passed
        assert rep.violation_fraction <= 3 * 0.05

    def test_bounded_uniform(self):
        rep = lemma1_montecarlo(1000, 300, 0.05, MdsKind.BOUNDED_UNIFORM, seed=1)
        assert rep.passed

    def test_minimum_trial_count(self):
        with pytest.raises(OutOfRange):
            lemma1_montecarlo(50, 100, 0.05)

    def test_delta_log_clamp_used(self):
        # delta >= 1/e clamps the log factor at 1: same bound as delta = 1/e
        rep_a = lemma1_montecarlo(500, 200, 0.9, MdsKind.RADEMACHER, seed=2)
        rep_b = lemma1_montecarlo(500, 200, 1.0 / math.e, MdsKind.RADEMACHER, seed=2)
        assert rep_a.n_violations == rep_b.n_violations

    def test_deterministic_given_seed(self):
        a = lemma1_montecarlo(500, 100, 0.05, seed=9)
        b = lemma1_montecarlo(500, 100, 0.05, seed=9)
        assert a.n_violations == b.n_violations

    @settings(max_examples=100, deadline=None)
    @given(mds=st.sampled_from(list(MdsKind)), n_trials=st.integers(100, 2300),
           T=st.integers(1, 300),
           delta=st.sampled_from([0.05, 0.5, 0.9]) | st.floats(1e-12, 0.999),
           seed=st.integers(0, 2**64 - 1))
    @example(mds=MdsKind.RADEMACHER, n_trials=100, T=1, delta=0.5, seed=0)
    @example(mds=MdsKind.BOUNDED_UNIFORM, n_trials=100, T=1, delta=0.5, seed=0)
    @example(mds=MdsKind.RADEMACHER, n_trials=2001, T=300, delta=0.5, seed=1)
    @example(mds=MdsKind.BOUNDED_UNIFORM, n_trials=2300, T=300, delta=0.9, seed=2)
    def test_counts_match_frozen_float_loop(self, mds, n_trials, T, delta, seed):
        rep = lemma1_montecarlo(n_trials, T, delta, mds, seed=seed)
        assert rep.n_violations == frozen_lemma1_violations(n_trials, T, delta, mds, seed)

    @pytest.mark.parametrize("mds", list(MdsKind))
    @pytest.mark.parametrize("delta", [0.5, 0.9])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_counts_match_frozen_float_loop_where_paths_escape(self, mds, delta, seed):
        # two blocks, the second partial, at a horizon where some paths escape
        rep = lemma1_montecarlo(2500, 600, delta, mds, seed=seed)
        assert rep.n_violations > 0
        assert rep.n_violations == frozen_lemma1_violations(2500, 600, delta, mds, seed)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_step_indices_are_the_choice_draws(self, dtype):
        signs_rng, steps_rng = make_rng(11), make_rng(11)
        signs = signs_rng.choice([-1.0, 1.0], size=(300, 77))
        steps = steps_rng.integers(0, 2, size=(300, 77), dtype=dtype)
        assert np.array_equal(signs, 2.0 * steps - 1.0)
        assert signs_rng.bit_generator.state == steps_rng.bit_generator.state

    def test_escape_is_strict_in_integers_and_floats(self):
        assert _escaped_paths(np.array([[3, 4], [3, 5], [4, 0]]), np.array([3, 4])) == 2
        above = np.nextafter(4.0, 5.0)
        assert _escaped_paths(np.array([[3.0, 4.0], [3.0, above]]), np.array([3.0, 4.0])) == 1

    def test_rademacher_block_holds_four_bytes_per_entry(self):
        tracemalloc.start()
        try:
            lemma1_montecarlo(2000, 1000, 0.05, MdsKind.RADEMACHER, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one int32 block of step counts; the float64 draws and the bool
        # comparison held 17 bytes per entry
        assert peak < 5 * 2000 * 1000

    @pytest.mark.parametrize("mds", list(MdsKind))
    def test_long_paths_are_drawn_in_blocks_of_bounded_bytes(self, mds):
        # 100 trials of 2 * 10**5 steps in one block would hold 160 MB of
        # float64 sums (80 MB of int32 counts); blocks of at most 1 MB, here
        # one trial's row, keep the peak at that row and the O(T) bound
        # arrays (about 7.2 MB for int32 counts, 4.8 MB for float64 sums)
        tracemalloc.start()
        try:
            lemma1_montecarlo(100, 200_000, 0.05, mds, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    # a budget under one row's bytes draws one trial per block; 7 int32 or
    # 3 float64 rows of 600 steps draw a few, the last block partial
    @pytest.mark.parametrize("budget", [1, 7 * 600 * 4])
    @pytest.mark.parametrize("mds", list(MdsKind))
    def test_byte_bounded_blocks_match_frozen_float_loop(self, mds, budget, monkeypatch):
        monkeypatch.setattr(diagnostics, "_LEMMA1_BYTES", budget)
        for delta, seed in [(0.5, 0), (0.9, 3)]:
            rep = lemma1_montecarlo(130, 600, delta, mds, seed=seed)
            assert rep.n_violations > 0
            assert rep.n_violations == frozen_lemma1_violations(130, 600, delta, mds, seed)
