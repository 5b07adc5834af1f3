import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from signstorm import problems
from signstorm import (
    HyperParams,
    InvalidConstant,
    OptimizerKind,
    TraceRecorder,
    bounded_nonconvex,
    make_problem,
    make_rng,
    noisy_quadratic,
    run_cell,
    synthetic_logistic,
    verify_assumptions,
)
from signstorm.problems import NoiseRealization, NoisyQuadratic


def central_difference(value_fn, x, h=1e-5):
    d = len(x)
    g = np.empty(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        g[j] = (value_fn(x + e) - value_fn(x - e)) / (2 * h)
    return g


class TestNoisyQuadratic:
    def test_hand_arithmetic(self):
        p = noisy_quadratic(2, np.ones(2), np.zeros(2), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(p.exact_grad(np.array([1.0, 2.0])), [1.0, 2.0])
        assert p.value(np.array([1.0, 2.0])) == 2.5
        assert p.constants.delta_upper == 2.5
        np.testing.assert_array_equal(p.constants.x_star, [0.0, 0.0])

    def test_zero_noise_means_exact(self):
        p = noisy_quadratic(3, np.ones(3), np.zeros(3), np.ones(3))
        rng = make_rng(0)
        for _ in range(20):
            xi = p.draw_noise(rng)
            x = rng.standard_normal(3)
            np.testing.assert_array_equal(p.stoch_grad(x, xi), p.exact_grad(x))

    def test_declared_smoothness_constants(self):
        h = np.array([1.0, 2.0, 3.0, 4.0])
        p = noisy_quadratic(4, h, np.zeros(4), np.ones(4))
        np.testing.assert_allclose(p.constants.L_vec, [2.0, 4.0, 6.0, 8.0])
        # numeric check of the per-coordinate inequality over random triples
        rng = make_rng(1)
        sqrt_d = 2.0
        for _ in range(10_000):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            xi = p.draw_noise(rng)
            diff = np.abs(p.stoch_grad(x, xi) - p.stoch_grad(y, xi))
            assert np.all(diff * sqrt_d <= p.constants.L_vec * np.linalg.norm(x - y)
                          * (1 + 1e-12))

    def test_additive_noise_point_independent(self):
        # the same payload enters both evaluations; each recovered noise differs
        # from it only by the rounding of one addition
        p = noisy_quadratic(3, np.ones(3), 0.4 * np.ones(3), np.ones(3))
        rng = make_rng(2)
        xi = p.draw_noise(rng)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        nx = p.stoch_grad(x, xi) - p.exact_grad(x)
        ny = p.stoch_grad(y, xi) - p.exact_grad(y)
        ulp = np.spacing(np.maximum(np.abs(p.exact_grad(x)), np.abs(p.exact_grad(y))))
        assert np.all(np.abs(nx - xi.payload) <= ulp)
        assert np.all(np.abs(ny - xi.payload) <= ulp)

    def test_invalid_hessian(self):
        with pytest.raises(InvalidConstant):
            noisy_quadratic(2, np.array([1.0, 0.0]), np.zeros(2), np.ones(2))

    def test_presample_matches_single_draws(self):
        p = noisy_quadratic(3, np.ones(3), np.array([0.1, 0.0, 2.0]), np.ones(3))
        batch = p.presample_payloads(make_rng(5), 50)
        rng = make_rng(5)
        singles = np.stack([p.draw_noise(rng).payload for _ in range(50)])
        np.testing.assert_array_equal(batch, singles)


class TestBoundedNonConvex:
    def test_global_minimum_at_origin(self):
        p = bounded_nonconvex(3, np.ones(3), np.zeros(3), np.ones(3))
        np.testing.assert_array_equal(p.exact_grad(np.zeros(3)), np.zeros(3))
        assert p.value(np.zeros(3)) == 0.0
        rng = make_rng(3)
        for _ in range(100):
            assert p.value(rng.standard_normal(3) * 5) >= 0.0

    def test_curvature_supremum_is_two(self):
        # numeric maximization of |d^2/du^2 u^2/(1+u^2)| over a fine grid
        u = np.linspace(-10, 10, 2_000_001)
        h2 = 2 * (1 - 3 * u ** 2) / (1 + u ** 2) ** 3
        assert np.max(np.abs(h2)) == pytest.approx(2.0, abs=1e-9)
        assert abs(u[np.argmax(np.abs(h2))]) < 1e-5

    def test_gradient_matches_finite_differences(self):
        a = np.array([1.0, 0.5, 2.0])
        p = bounded_nonconvex(3, a, np.zeros(3), np.ones(3))
        rng = make_rng(4)
        for _ in range(100):
            x = rng.standard_normal(3) * 3
            np.testing.assert_allclose(p.exact_grad(x),
                                       central_difference(p.value, x),
                                       atol=1e-6)

    def test_nonconvexity_along_coordinates(self):
        # value function flattens: f(3x) < 9 f(x) fails convexity through 0
        p = bounded_nonconvex(1, np.ones(1), np.zeros(1), np.ones(1))
        x = np.array([2.0])
        mid = p.value(x)
        assert p.value(2 * x) < 2 * mid  # sublinear growth beyond the shoulder


class TestSyntheticLogistic:
    def test_single_sample_is_exact(self):
        p = synthetic_logistic(3, 1, 1.0, np.zeros(3))
        rng = make_rng(6)
        xi = p.draw_noise(rng)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(p.stoch_grad(x, xi), p.exact_grad(x), rtol=1e-15)

    def test_exhaustive_unbiasedness(self):
        p = synthetic_logistic(4, 12, 1.0, np.zeros(4))
        rng = make_rng(7)
        for _ in range(10):
            x = rng.standard_normal(4)
            mean = np.mean([p.stoch_grad(x, xi) for xi in p.noise_support()], axis=0)
            np.testing.assert_allclose(mean, p.exact_grad(x), atol=1e-12)

    def test_noise_bound_over_all_indices(self):
        p = synthetic_logistic(4, 12, 1.5, np.zeros(4))
        sigma = p.constants.sigma_vec
        rng = make_rng(8)
        for _ in range(100):
            x = rng.standard_normal(4) * 2
            exact = p.exact_grad(x)
            for xi in p.noise_support():
                assert np.all(np.abs(p.stoch_grad(x, xi) - exact) <= sigma)

    def test_gradient_matches_finite_differences(self):
        p = synthetic_logistic(3, 8, 1.0, np.zeros(3))
        rng = make_rng(9)
        for _ in range(25):
            x = rng.standard_normal(3)
            np.testing.assert_allclose(p.exact_grad(x),
                                       central_difference(p.value, x), atol=1e-6)

    def test_data_generation_deterministic(self):
        a = synthetic_logistic(3, 5, 1.0, np.zeros(3), seed=42)
        b = synthetic_logistic(3, 5, 1.0, np.zeros(3), seed=42)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


def frozen_sigmoid(z):
    """The two-branch sigmoid the logistic oracles were pinned with."""
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def frozen_margins(p, x):
    return p.labels * (p.features @ x)


def frozen_exact_grad(p, x):
    s = frozen_sigmoid(-frozen_margins(p, x))
    return np.mean((-p.labels * s)[:, None] * p.features, axis=0)


def frozen_value(p, x):
    return float(np.mean(np.logaddexp(0.0, -frozen_margins(p, x))))


def frozen_stoch_grad(p, x, i):
    z = -p.labels[i] * float(p.features[i] @ x)
    return -p.labels[i] * p.features[i] * float(frozen_sigmoid(z)[0])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLogisticOraclesBitForBit:
    """The shared-margin, einsum and scalar-sigmoid oracles against a
    frozen copy of the formulas the golden digests were computed with."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 48), d=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           log_scale=st.floats(-2.0, 4.0), zeros=st.sampled_from([0.0, 0.5, 1.0]))
    @example(n=1, d=1, seed=0, log_scale=0.0, zeros=0.0)
    @example(n=40, d=1, seed=1, log_scale=0.5, zeros=0.0)
    @example(n=1, d=5, seed=2, log_scale=1.0, zeros=0.5)
    @example(n=33, d=2, seed=3, log_scale=0.0, zeros=1.0)    # z = +-0
    @example(n=17, d=2, seed=4, log_scale=3.5, zeros=0.0)    # |z| > 745
    def test_oracles_match_frozen_formulas(self, n, d, seed, log_scale, zeros):
        p = synthetic_logistic(d, n, 1.0, np.zeros(d), seed=seed)
        gen = np.random.default_rng(seed)
        x = gen.standard_normal(d) * 10.0 ** log_scale
        # this share of the coordinates zero, of either sign; all of them
        # make every margin +-0
        hit = gen.random(d) < zeros
        x[hit] = gen.choice([0.0, -0.0], hit.sum())
        assert same_bits(p.exact_grad(x), frozen_exact_grad(p, x))
        assert same_bits(p.value(x), frozen_value(p, x))
        assert same_bits(p.value(x), frozen_value(p, x))  # a memo hit
        for i in range(n):
            assert same_bits(p.stoch_grad(x, NoiseRealization(i)), frozen_stoch_grad(p, x, i))

    @settings(max_examples=200, deadline=None)
    @given(z=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                      max_size=40))
    @example(z=[0.0, -0.0, 745.5, -745.5, 800.0, -800.0, 1e-310, float("nan")])
    @example(z=[-19.845840654456573, 58.80774949349894])  # math.exp is off by an ulp
    def test_sigmoids_match_frozen_formula(self, z):
        expected = frozen_sigmoid(z)
        assert same_bits(problems._sigmoid(z), expected)
        # the scalar path of stoch_grad: one sample with w = 1 and y = 1
        # evaluates the sigmoid at z = -(w x) = zk for x = -zk
        p = synthetic_logistic(1, 1, 1.0, np.zeros(1))
        p.features, p.labels = np.ones((1, 1)), np.ones(1)
        for zk in z:
            x = np.array([-zk])
            assert same_bits(p.stoch_grad(x, NoiseRealization(0)),
                             frozen_stoch_grad(p, x, 0))

    def test_memo_keys_on_the_values_of_x(self):
        p = synthetic_logistic(5, 20, 1.0, np.zeros(5), seed=3)
        x = np.linspace(-1.0, 1.0, 5)
        before = frozen_value(p, x)
        p.exact_grad(x)
        x[2] += 0.5  # the same array, new values
        assert p.value(x) == frozen_value(p, x) != before
        assert same_bits(p.exact_grad(x), frozen_exact_grad(p, x))

    def test_memo_holds_the_last_point_only(self):
        p = synthetic_logistic(3, 16, 1.0, np.zeros(3))
        rng = make_rng(5)
        xs = [rng.standard_normal(3) for _ in range(50)]
        for x in xs:
            p.exact_grad(x)
            assert same_bits(p.value(x), frozen_value(p, x))
        assert p._memo_key == xs[-1].tobytes()
        # an earlier point is recomputed, and evicts the last one
        assert same_bits(p.value(xs[0]), frozen_value(p, xs[0]))
        assert p._memo_key == xs[0].tobytes()

    def test_memo_hits_for_every_seed_of_a_traced_cell(self):
        """run_cell asks for each row's loss right after its gradient, so
        every loss reuses the margins, for any seed count."""
        p = synthetic_logistic(4, 30, 1.0, np.full(4, 0.5), seed=1)
        hits = []
        value = p.value

        def spy(x):
            hits.append(p._memo_key == np.asarray(x).tobytes())
            return value(x)

        p.value = spy
        S, T = 70, 5
        run_cell(p, OptimizerKind.STORM, HyperParams(eta=0.05, beta1=0.9, beta2=0.0), T, list(range(S)),
                 TraceRecorder(S, T))
        assert len(hits) == S * T and all(hits)


def per_probe_verify(problem, n_probes, rng):
    """verify_assumptions one draw and one oracle call at a time, as it was
    before the probes were drawn in blocks: the reference for the block
    path.  The noise bound and smoothness pass up to 1 + _REL_SLACK.
    Returns each check's (passed, worst_ratio)."""
    consts = problem.constants
    sigma = consts.sigma_vec
    points = problems._probe_points(problem, rng, 5)
    worst = 0.0
    for x in points:
        exact = problem.exact_grad(x)
        acc = np.zeros(problem.d)
        for _ in range(n_probes):
            acc += problem.stoch_grad(x, problem.draw_noise(rng)) - exact
        gap = np.abs(acc / n_probes)
        tol = 5.0 * sigma / np.sqrt(n_probes) + 1e-12
        worst = max(worst, float(np.max(gap / tol)))
    out = [(worst <= 1.0, worst)]

    worst = 0.0
    for x in problems._probe_points(problem, rng, n_probes):
        noise = np.abs(problem.stoch_grad(x, problem.draw_noise(rng)) - problem.exact_grad(x))
        ratio = np.zeros(problem.d)
        np.divide(noise, sigma, out=ratio, where=sigma > 0)
        ratio[(sigma == 0) & (noise > 0)] = np.inf
        worst = max(worst, float(np.max(ratio)))
    out.append((worst <= 1.0 + problems._REL_SLACK, worst))

    worst = 0.0
    sqrt_d = np.sqrt(problem.d)
    xs = problems._probe_points(problem, rng, n_probes)
    ys = problems._probe_points(problem, rng, n_probes)
    for x, y in zip(xs, ys):
        dist = float(np.linalg.norm(x - y))
        if dist == 0.0:
            continue
        xi = problem.draw_noise(rng)
        diff = np.abs(problem.stoch_grad(x, xi) - problem.stoch_grad(y, xi))
        worst = max(worst, float(np.max(diff * sqrt_d / (consts.L_vec * dist))))
    out.append((worst <= 1.0 + problems._REL_SLACK, worst))
    return out


class UnderstatedNoise(NoisyQuadratic):
    """A quadratic whose additive noise is drawn at ``true_sigma`` while
    its constants declare ``sigma_vec``, so a coordinate declared noiseless
    can still be noisy (the verifier's inf branch)."""

    def __init__(self, d, true_sigma, declared_sigma):
        super().__init__(d, np.ones(d), declared_sigma, np.ones(d))
        self.true_sigma = true_sigma

    def draw_noise(self, rng):
        return NoiseRealization(rng.uniform(-self.true_sigma, self.true_sigma))

    def presample_payloads(self, rng, n):
        return rng.uniform(-self.true_sigma, self.true_sigma, size=(n, self.d))


class TestVerifyAssumptions:
    def test_quadratic_passes(self):
        p = noisy_quadratic(4, np.array([1.0, 2.0, 3.0, 4.0]),
                            0.5 * np.ones(4), np.ones(4))
        rep = verify_assumptions(p, 2000, make_rng(10))
        assert rep.all_passed
        for check in rep.checks():
            assert check.worst_ratio <= 1.0

    def test_halved_L_fails_with_ratio_near_two(self):
        import dataclasses
        p = noisy_quadratic(4, np.ones(4), 0.5 * np.ones(4), np.ones(4))
        p.constants = dataclasses.replace(p.constants,
                                          L_vec=0.5 * p.constants.L_vec)
        rep = verify_assumptions(p, 10_000, make_rng(11))
        assert not rep.smoothness.passed
        assert rep.smoothness.worst_ratio == pytest.approx(2.0, rel=0.15)

    def test_slack_admits_rounding_not_a_violation(self):
        # a one-dimensional quadratic has L = h, so its smoothness ratio is
        # 1 up to rounding; an L understated by a millionth must still fail
        import dataclasses
        p = noisy_quadratic(1, np.array([1.5]), np.array([0.4]), np.array([2.0]))
        rep = verify_assumptions(p, 300, make_rng(17))
        assert rep.smoothness.passed
        assert rep.smoothness.worst_ratio == pytest.approx(1.0, rel=1e-12)
        p.constants = dataclasses.replace(p.constants,
                                          L_vec=(1 - 1e-6) * p.constants.L_vec)
        rep = verify_assumptions(p, 300, make_rng(17))
        assert not rep.smoothness.passed

    def test_zero_noise_reported_as_pass(self):
        p = noisy_quadratic(3, np.ones(3), np.zeros(3), np.ones(3))
        rep = verify_assumptions(p, 500, make_rng(12))
        assert rep.noise_bound.passed
        assert rep.noise_bound.worst_ratio == 0.0

    def test_logistic_passes(self):
        p = synthetic_logistic(3, 10, 1.0, np.zeros(3))
        rep = verify_assumptions(p, 1000, make_rng(13))
        assert rep.all_passed

    def test_bounded_nonconvex_passes(self):
        p = bounded_nonconvex(4, np.ones(4), 0.3 * np.ones(4), np.ones(4))
        rep = verify_assumptions(p, 2000, make_rng(14))
        assert rep.all_passed

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 5), n_probes=st.integers(1, 40),
           problem_name=st.sampled_from(["noisy_quadratic", "bounded_nonconvex",
                                         "understated"]),
           seed=st.integers(0, 2**32 - 1), zero_sigma=st.booleans(),
           repeat_pairs=st.booleans())
    @example(d=1, n_probes=1, problem_name="noisy_quadratic", seed=0, zero_sigma=True,
             repeat_pairs=False)
    @example(d=3, n_probes=5, problem_name="understated", seed=1, zero_sigma=True,
             repeat_pairs=True)
    def test_block_draws_match_per_probe_reference(self, d, n_probes, problem_name, seed,
                                                  zero_sigma, repeat_pairs):
        gen = np.random.default_rng(seed)
        sigma = gen.uniform(0.0, 2.0, d)
        if zero_sigma:
            sigma[gen.integers(0, d)] = 0.0  # 0/0 counts as 0
        if problem_name == "understated":
            declared = sigma.copy()
            declared[gen.integers(0, d)] = 0.0  # noisy but declared noiseless: inf
            p = UnderstatedNoise(d, sigma + 0.1, declared)
        else:
            p = make_problem(problem_name, {"d": d, "sigma": sigma,
                                            "x_init": gen.uniform(-2.0, 2.0, d)})
        probe_points = problems._probe_points
        previous = []

        def points_with_repeats(problem, rng, n):
            # every other smoothness pair at distance 0, which draws no noise
            pts = probe_points(problem, rng, n)
            if repeat_pairs and previous and previous[-1].shape == pts.shape:
                pts[::2] = previous[-1][::2]
            previous.append(pts)
            return pts

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(problems, "_probe_points", points_with_repeats)
            rng = make_rng(seed)
            rep = verify_assumptions(p, n_probes, rng)
            previous.clear()
            ref_rng = make_rng(seed)
            expected = per_probe_verify(p, n_probes, ref_rng)
        assert [(c.passed, c.worst_ratio) for c in rep.checks()] == expected
        # both consumed the generator alike
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_probe_count_validation(self):
        p = noisy_quadratic(2, np.ones(2), np.zeros(2), np.ones(2))
        with pytest.raises(InvalidConstant):
            verify_assumptions(p, 0, make_rng(0))


class TestMakeProblem:
    def test_scalar_broadcast(self):
        p = make_problem("noisy_quadratic",
                         {"d": 3, "hessian_diag": 2.0, "sigma": 0.1, "x_init": 1.0})
        np.testing.assert_array_equal(p.h, [2.0, 2.0, 2.0])

    def test_unknown_name(self):
        with pytest.raises(InvalidConstant):
            make_problem("rosenbrock", {"d": 2})

    def test_unknown_params_rejected(self):
        with pytest.raises(InvalidConstant):
            make_problem("noisy_quadratic", {"d": 2, "bogus": 1})

    def test_missing_dimension(self):
        with pytest.raises(InvalidConstant):
            make_problem("noisy_quadratic", {})
