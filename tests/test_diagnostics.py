import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from signstorm import (
    EpsilonTrace,
    HyperParams,
    MdsKind,
    NonFiniteValue,
    OptimizerKind,
    OutOfRange,
    PreconditionNotMet,
    decomposition_check,
    epsilon_bound_frequency,
    epsilon_envelope,
    estimator_ratio_check,
    lemma1_montecarlo,
    movement_bound_check,
    noisy_quadratic,
    representation_check,
    run_with_diagnostics,
    sign_dichotomy_frequency,
)


def quadratic(d=4, sigma=0.5, h=1.0):
    return noisy_quadratic(d, np.full(d, h), np.full(d, sigma),
                           np.linspace(0.8, 1.4, d))


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
        run = run_with_diagnostics(p, hp, 50, seed=3)
        assert np.array_equal(run.trace.z[0], np.zeros(4))
        assert np.array_equal(run.trace.eps0, run.trace.xi[0])
        # eps_t = m_t - grad F(x_t) by construction
        np.testing.assert_array_equal(run.trace.eps, run.m - run.grad_exact)
        # first-step estimator equals the first sampled gradient
        np.testing.assert_array_equal(run.m[0], run.trace.xi[0] + run.grad_exact[0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_nonfinite(self):
        # gradients near 1e300 overflow v = m^2 within a few sign steps
        p = quadratic(sigma=0.0)
        hp = HyperParams(eta=1e300, beta1=0.0, beta2=0.0)
        with pytest.raises(NonFiniteValue, match="NaN/Inf"):
            run_with_diagnostics(p, hp, 50, seed=1)


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


class TestMovementBound:
    def test_sign_case_bound_attained(self):
        # beta2=0, d=4, eta=0.1: bound is 0.2, attained when all coordinates move
        p = quadratic(sigma=0.0)
        hp = HyperParams(eta=0.1, beta1=0.0, beta2=0.0)
        run = run_with_diagnostics(p, hp, 30, seed=1)
        res = movement_bound_check(run.step_l2, hp, d=4)
        assert res.passed
        assert res.worst_ratio == pytest.approx(1.0, abs=1e-12)
        assert np.max(run.step_l2) == pytest.approx(0.2, rel=1e-12)

    @pytest.mark.parametrize("beta2", [0.0, 0.5, 0.81])
    def test_random_runs_never_violate(self, beta2):
        p = quadratic()
        hp = HyperParams(eta=0.03, beta1=0.9, beta2=beta2)
        run = run_with_diagnostics(p, hp, 2000, seed=7)
        res = movement_bound_check(run.step_l2, hp, d=4)
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
        trace = EpsilonTrace(xi=xi, eps=xi.copy(), z=z)
        res = representation_check(trace, beta1=0.0)
        assert res.passed
        assert res.worst_ratio < 1e-9

    def test_three_step_hand_case(self):
        xi = np.array([[0.3], [-0.2], [0.5]])
        z = np.array([[0.0], [0.1], [-0.4]])
        trace = trace_from_recurrence(xi, z, beta1=0.5)
        np.testing.assert_allclose(trace.eps.ravel(), [0.3, 0.1, 0.1], atol=1e-12)
        res = representation_check(trace, beta1=0.5, tol=1e-12)
        assert res.passed

    def test_long_noisy_run(self):
        p = quadratic(d=4)
        hp = HyperParams(eta=0.01, beta1=0.99, beta2=0.0)
        run = run_with_diagnostics(p, hp, 1000, seed=5)
        res = representation_check(run.trace, beta1=0.99)
        assert res.passed

    def test_perturbed_trace_fails(self):
        rng = np.random.default_rng(1)
        xi = rng.standard_normal((30, 2))
        z = rng.standard_normal((30, 2))
        z[0] = 0
        trace = trace_from_recurrence(xi, z, beta1=0.7)
        trace.eps[17, 1] += 1e-3
        assert not representation_check(trace, beta1=0.7).passed

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
        res = representation_check(trace, beta1)
        passed, worst_ratio, worst_t = per_t_representation(trace, beta1)
        if d >= 2:
            # the same products added in the same order: bit for bit
            assert (res.passed, res.worst_ratio, res.worst_t) == (passed, worst_ratio, worst_t)
        else:
            assert res.worst_ratio == pytest.approx(worst_ratio, rel=1e-12, abs=0.0)
            assert res.passed == passed


class TestDecompositionAndRatio:
    def test_decomposition_on_run(self):
        p = quadratic()
        hp = HyperParams(eta=0.02, beta1=0.9, beta2=0.81)
        run = run_with_diagnostics(p, hp, 500, seed=11)
        res = decomposition_check(run)
        assert res.passed

    def test_decomposition_needs_storm_kind(self):
        p = quadratic()
        hp = HyperParams(eta=0.02, beta1=0.9, beta2=0.81)
        run = run_with_diagnostics(p, hp, 10, seed=11,
                                   kind=OptimizerKind.GENERALIZED_SIGN_SGD)
        with pytest.raises(PreconditionNotMet):
            decomposition_check(run)

    def test_ratio_cap(self):
        p = quadratic()
        for beta2 in (0.0, 0.5, 0.9):
            hp = HyperParams(eta=0.02, beta1=0.9, beta2=beta2)
            run = run_with_diagnostics(p, hp, 300, seed=13)
            res = estimator_ratio_check(run)
            assert res.passed
            assert res.worst_ratio <= 1.0 + 1e-12


class TestEpsilonBound:
    def test_noiseless_momentum_free_never_violates(self):
        p = quadratic(sigma=0.0)
        hp = HyperParams(eta=0.05, beta1=0.0, beta2=0.0)
        run = run_with_diagnostics(p, hp, 200, seed=2)
        rep = epsilon_bound_frequency(run.trace, hp, p.constants.L_vec,
                                      p.constants.sigma_vec, 0.1)
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
        traces = [run_with_diagnostics(p, hp, 100, seed=s).trace for s in range(5)]
        rep = epsilon_bound_frequency(traces, hp, p.constants.L_vec,
                                      p.constants.sigma_vec, 0.05)
        assert rep.n_total == 5 * 100 * 4
        assert rep.passed


class TestSignDichotomy:
    def test_exact_gradient_regime_no_violations(self):
        # sigma=0 and beta1=0, beta2=0: m equals grad F, ratio is 1 >= 1/5
        p = quadratic(sigma=0.0)
        hp = HyperParams(eta=0.05, beta1=0.0, beta2=0.0)
        run = run_with_diagnostics(p, hp, 200, seed=4)
        rep = sign_dichotomy_frequency(run, p.constants.L_vec,
                                       p.constants.sigma_vec, 0.05)
        assert rep.n_violations == 0

    def test_near_stationary_branch_one(self):
        # start at the optimum: gradients stay tiny, branch one carries everything
        p = noisy_quadratic(3, np.ones(3), 0.2 * np.ones(3), np.zeros(3))
        hp = HyperParams(eta=0.001, beta1=0.9, beta2=0.0)
        run = run_with_diagnostics(p, hp, 100, seed=6)
        rep = sign_dichotomy_frequency(run, p.constants.L_vec,
                                       p.constants.sigma_vec, 0.05)
        assert rep.passed

    def test_noisy_runs_under_budget(self):
        p = quadratic()
        hp = HyperParams(eta=0.01, beta1=0.95, beta2=0.5)
        runs = [run_with_diagnostics(p, hp, 150, seed=s) for s in range(10)]
        rep = sign_dichotomy_frequency(runs, p.constants.L_vec,
                                       p.constants.sigma_vec, 0.05)
        assert rep.passed

    def test_guard_refused(self):
        p = quadratic()
        hp = HyperParams(eta=0.01, beta1=0.9, beta2=0.0, eps_guard=1e-8)
        run = run_with_diagnostics(p, hp, 10, seed=1)
        with pytest.raises(PreconditionNotMet):
            sign_dichotomy_frequency(run, p.constants.L_vec,
                                     p.constants.sigma_vec, 0.05)


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
