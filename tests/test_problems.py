import warnings
from unittest import mock

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
    synthetic_logistic,
    verify_assumptions,
)
from signstorm.problems import BoundedNonConvex, NoisyQuadratic

from cells import whole_cell


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
        assert np.all(np.abs(nx - xi) <= ulp)
        assert np.all(np.abs(ny - xi) <= ulp)

    def test_invalid_hessian(self):
        with pytest.raises(InvalidConstant):
            noisy_quadratic(2, np.array([1.0, 0.0]), np.zeros(2), np.ones(2))



class TestAdditiveConstants:
    """The one additive constructor against frozen copies of the formulas
    that each additive problem's own constructor used."""

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           log_scale=st.floats(-150.0, 150.0), log_x=st.floats(-3.0, 3.0))
    @example(d=1, seed=0, log_scale=150.0, log_x=0.0)
    @example(d=1, seed=1, log_scale=-150.0, log_x=2.0)
    @example(d=5, seed=2, log_scale=149.9, log_x=-3.0)
    @example(d=12, seed=3, log_scale=-149.9, log_x=3.0)
    def test_constants_match_frozen_formulas(self, d, seed, log_scale, log_x):
        gen = np.random.default_rng(seed)
        scale = gen.uniform(0.5, 2.0, d) * 10.0 ** log_scale
        sigma = gen.uniform(0.0, 2.0, d) * 10.0 ** log_scale
        x0 = gen.standard_normal(d) * 10.0 ** log_x
        frozen = {
            NoisyQuadratic: (0.5 * float((scale * x0) @ x0), scale * np.sqrt(d)),
            BoundedNonConvex: (float(np.sum(scale * x0 * x0 / (1.0 + x0 * x0))),
                               2.0 * scale * np.sqrt(d)),
        }
        for cls, (delta_upper, L_vec) in frozen.items():
            consts = cls(d, scale, sigma, x0).constants
            assert same_bits(consts.delta_upper, delta_upper)
            assert same_bits(consts.L_vec, L_vec)
            assert same_bits(consts.sigma_vec, sigma) and same_bits(consts.x_init, x0)


class TestPresample:
    """Every problem presamples its noise; a block must be the draws, and
    leave the generator in the state, of as many single draws."""

    @pytest.mark.parametrize("problem", [
        noisy_quadratic(3, np.ones(3), np.array([0.1, 0.0, 2.0]), np.ones(3)),
        bounded_nonconvex(2, np.ones(2), np.array([0.5, 1.0]), np.ones(2)),
        synthetic_logistic(3, 7, 1.0, np.zeros(3)),
    ], ids=lambda p: p.name)
    def test_presample_matches_single_draws(self, problem):
        block_rng, rng = make_rng(5), make_rng(5)
        batch = problem.presample_payloads(block_rng, 50)
        singles = np.stack([problem.draw_noise(rng) for _ in range(50)])
        np.testing.assert_array_equal(batch, singles)
        assert block_rng.bit_generator.state == rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 200), n=st.integers(0, 80), before=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-320.0, 307.0),
           zero=st.booleans())
    @example(d=1, n=0, before=0, seed=0, log_scale=0.0, zero=False)
    @example(d=20, n=68, before=1, seed=1, log_scale=-0.5, zero=True)
    @example(d=200, n=1000, before=0, seed=2, log_scale=1.0, zero=True)
    @example(d=1, n=1000, before=3, seed=3, log_scale=0.0, zero=True)
    @example(d=3, n=5, before=0, seed=4, log_scale=307.0, zero=False)
    def test_additive_block_equals_uniform_draw(self, d, n, before, seed, log_scale, zero):
        # the additive presample is lo + range * random(), which must give
        # the bits and leave the state of uniform(-sigma, sigma, (n, d))
        gen = np.random.default_rng(seed)
        sigma = gen.uniform(0.0, 2.0, d) * 10.0 ** log_scale
        if zero:
            sigma[gen.integers(0, d)] = 0.0
        p = noisy_quadratic(d, np.ones(d), sigma, np.ones(d))
        block_rng, rng = make_rng(seed), make_rng(seed)
        for g in (block_rng, rng):
            g.integers(0, 5, size=before)
        block = p.presample_payloads(block_rng, n)
        assert same_bits(block, rng.uniform(-sigma, sigma, size=(n, d)))
        assert block_rng.bit_generator.state == rng.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 2**31 - 1), k=st.integers(0, 70), before=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    @example(n=1, k=5, before=0, seed=0)            # a one-value range draws nothing
    @example(n=2**31 - 1, k=3, before=1, seed=1)
    @example(n=2**31 - 1, k=1, before=0, seed=2)    # rejection near the top
    def test_block_integer_draws_match_scalar_draws(self, n, k, before, seed):
        # synthetic_logistic presamples its indices with one integers call;
        # draws before it leave half of a 64-bit output buffered
        block_rng, rng = make_rng(seed), make_rng(seed)
        for gen in (block_rng, rng):
            gen.integers(0, n, size=before)
        block = block_rng.integers(0, n, size=k)
        assert block.tolist() == [int(rng.integers(0, n)) for _ in range(k)]
        assert block_rng.bit_generator.state == rng.bit_generator.state


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


def edge_point(gen, d):
    """A point at a scale reaching |z| > 745, with a share of its
    coordinates +-0; all of them make every margin +-0."""
    x = gen.standard_normal(d) * 10.0 ** gen.uniform(-2.0, 4.0)
    hit = gen.random(d) < gen.choice([0.0, 0.5, 1.0])
    x[hit] = gen.choice([0.0, -0.0], hit.sum())
    return x


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
        grads, loss = p.exact_grads(np.stack([x, -x]), True)
        assert same_bits(grads, [frozen_exact_grad(p, x), frozen_exact_grad(p, -x)])
        assert same_bits(loss, [frozen_value(p, x), frozen_value(p, -x)])
        for i in range(n):
            assert same_bits(p.stoch_grad(x, i), frozen_stoch_grad(p, x, i))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 48), d=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(1, 9), min_size=1, max_size=4),
           big=st.integers(257, 300), margin_values=st.sampled_from([None, 1, 50]))
    @example(n=1, d=1, seed=0, sizes=[1, 9], big=257, margin_values=None)
    @example(n=40, d=1, seed=1, sizes=[2, 6], big=300, margin_values=50)
    @example(n=17, d=2, seed=4, sizes=[9], big=257, margin_values=1)
    def test_block_rows_match_frozen_formulas(self, n, d, seed, sizes, big, margin_values):
        """Each row of an ``exact_grads`` block, gradient and loss, is the
        per-row formula at that row alone, whatever rows share its block or
        how many rows a block of margins holds (``margin_values``)."""
        p = synthetic_logistic(d, n, 1.0, np.zeros(d), seed=seed)
        gen = np.random.default_rng(seed)
        limit = problems._MARGIN_VALUES if margin_values is None else margin_values
        with mock.patch.object(problems, "_MARGIN_VALUES", limit):
            for S in sizes + [big]:
                xs = np.stack([edge_point(gen, d) for _ in range(S)])
                grads, loss = p.exact_grads(xs, True)
                only_grads, no_loss = p.exact_grads(xs, False)
                assert no_loss is None and same_bits(only_grads, grads)
                for r in range(S):
                    assert same_bits(grads[r], frozen_exact_grad(p, xs[r]))
                    assert same_bits(loss[r], frozen_value(p, xs[r]))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 48), d=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           S=st.sampled_from([1, 2, 70]))
    @example(n=1, d=1, seed=0, S=70)
    @example(n=40, d=1, seed=1, S=2)
    @example(n=17, d=2, seed=4, S=1)
    def test_sampled_block_rows_match_frozen_formula(self, n, d, seed, S):
        """Each row of a ``sampled_grads`` block is the one-point formula
        at that row and payload alone, whatever rows share its block."""
        p = synthetic_logistic(d, n, 1.0, np.zeros(d), seed=seed)
        gen = np.random.default_rng(seed)
        xs = np.stack([edge_point(gen, d) for _ in range(S)])
        payloads = gen.integers(0, n, S)
        block = p.sampled_grads(xs, payloads, None)
        for r in range(S):
            assert same_bits(block[r], frozen_stoch_grad(p, xs[r], payloads[r]))
        part = gen.permutation(S)[:max(1, S // 2)]
        assert same_bits(p.sampled_grads(xs[part], payloads[part], None), block[part])
        # the verifier's block: one point under every sample
        support = p.noise_support()
        at_x = p.sampled_grads(np.broadcast_to(xs[0], (n, d)), support, None)
        for i in support:
            assert same_bits(at_x[i], frozen_stoch_grad(p, xs[0], i))

    @settings(max_examples=200, deadline=None)
    @given(z=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                      max_size=40))
    @example(z=[0.0, -0.0, 745.5, -745.5, 800.0, -800.0, 1e-310, float("nan")])
    @example(z=[-19.845840654456573, 58.80774949349894])  # math.exp is off by an ulp
    def test_sigmoids_match_frozen_formula(self, z):
        expected = frozen_sigmoid(z)
        assert same_bits(problems._sigmoid(z), expected)
        # the sampled oracle, one row and one block: one sample with w = 1
        # and y = 1 evaluates the sigmoid at z = -(w x) = zk for x = -zk
        p = synthetic_logistic(1, 1, 1.0, np.zeros(1))
        p.features, p.labels = np.ones((1, 1)), np.ones(1)
        xs = -np.array(z)[:, None]
        block = p.sampled_grads(xs, np.zeros(len(z), dtype=np.int64), None)
        for r, x in enumerate(xs):
            assert same_bits(p.stoch_grad(x, 0), frozen_stoch_grad(p, x, 0))
            assert same_bits(block[r], frozen_stoch_grad(p, x, 0))

    def test_oracles_read_the_values_of_x(self):
        p = synthetic_logistic(5, 20, 1.0, np.zeros(5), seed=3)
        x = np.linspace(-1.0, 1.0, 5)
        before = frozen_value(p, x)
        p.exact_grad(x)
        x[2] += 0.5  # the same array, new values
        assert p.value(x) == frozen_value(p, x) != before
        assert same_bits(p.exact_grad(x), frozen_exact_grad(p, x))

    def test_traced_cell_computes_margins_once_per_row_step(self):
        """A traced cell asks for every row's gradient and loss at every
        step; both come from one block margins product, for any seed count."""
        p = synthetic_logistic(4, 30, 1.0, np.full(4, 0.5), seed=1)
        rows = []
        matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            if a is p.features:  # the margins of the rows of b
                rows.append(len(b))
            return matmul(a, b, *args, **kwargs)

        S, T = 70, 5
        hp = HyperParams(eta=0.05, beta1=0.9, beta2=0.0)
        with mock.patch.object(problems.np, "matmul", spy):
            cell = whole_cell(p, OptimizerKind.STORM, hp, T, list(range(S)), TraceRecorder)
        # one call per step, as 70 rows of 30 margins make one block
        assert np.all(cell.done == T) and rows == [S] * T


def per_probe_verify(problem, n_probes, rng):
    """verify_assumptions one draw and one oracle call at a time, as it was
    before the probes were drawn in blocks: the reference for the block
    path.  Unbiasedness averages over the whole support where the noise
    has one, as the verifier does.  The noise bound and smoothness pass up
    to 1 + _REL_SLACK.  Returns each check's (passed, worst_ratio)."""
    consts = problem.constants
    sigma = consts.sigma_vec
    points = problems._probe_points(problem, rng, 5)
    support = problem.noise_support()
    worst = 0.0
    for x in points:
        exact = problem.exact_grad(x)
        if support is not None:
            mean = np.mean([problem.stoch_grad(x, i) for i in support], axis=0)
            tol = 1e-12 * (1.0 + float(np.max(np.abs(exact))))
            worst = max(worst, np.max(np.abs(mean - exact)) / tol)
            continue
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
        return rng.uniform(-self.true_sigma, self.true_sigma)

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
                                         "synthetic_logistic", "understated"]),
           seed=st.integers(0, 2**32 - 1), zero_sigma=st.booleans(),
           repeat_pairs=st.booleans())
    @example(d=1, n_probes=1, problem_name="noisy_quadratic", seed=0, zero_sigma=True,
             repeat_pairs=False)
    @example(d=3, n_probes=5, problem_name="understated", seed=1, zero_sigma=True,
             repeat_pairs=True)
    @example(d=2, n_probes=7, problem_name="synthetic_logistic", seed=2, zero_sigma=False,
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
        elif problem_name == "synthetic_logistic":
            p = make_problem(problem_name, {
                "d": d, "n_samples": int(gen.integers(1, 30)),
                "feature_bound": float(gen.uniform(0.1, 3.0)),
                "x_init": gen.uniform(-2.0, 2.0, d), "data_seed": int(gen.integers(0, 100))})
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
        np.testing.assert_array_equal(p.scale, [2.0, 2.0, 2.0])

    def test_unknown_name(self):
        with pytest.raises(InvalidConstant):
            make_problem("rosenbrock", {"d": 2})

    def test_unknown_params_rejected(self):
        with pytest.raises(InvalidConstant):
            make_problem("noisy_quadratic", {"d": 2, "bogus": 1})

    def test_missing_dimension(self):
        with pytest.raises(InvalidConstant):
            make_problem("noisy_quadratic", {})

    @pytest.mark.parametrize("name, key, value", [
        ("noisy_quadratic", "d", "x"),
        ("noisy_quadratic", "d", 2.5),
        ("noisy_quadratic", "d", True),
        ("synthetic_logistic", "n_samples", 4.0),
        ("synthetic_logistic", "data_seed", False),
        ("synthetic_logistic", "feature_bound", "1"),
        # of the right type but out of range
        ("noisy_quadratic", "d", -2),
        ("noisy_quadratic", "d", 0),
        ("synthetic_logistic", "n_samples", 0),
        ("synthetic_logistic", "data_seed", -1),
        ("synthetic_logistic", "feature_bound", np.inf),
        ("synthetic_logistic", "feature_bound", np.nan),
        ("synthetic_logistic", "feature_bound", -1.0),
        # vectors: a finite number or a list of them, scales positive and
        # noise bounds nonnegative
        ("noisy_quadratic", "hessian_diag", "abc"),
        ("noisy_quadratic", "hessian_diag", np.inf),
        ("noisy_quadratic", "hessian_diag", 0.0),
        ("noisy_quadratic", "hessian_diag", [1.0, -1.0]),
        ("noisy_quadratic", "hessian_diag", True),
        ("bounded_nonconvex", "a", [1.0, np.nan]),
        ("bounded_nonconvex", "a", -2),
        ("noisy_quadratic", "sigma", None),
        ("noisy_quadratic", "sigma", np.inf),
        ("noisy_quadratic", "sigma", -0.5),
        ("noisy_quadratic", "sigma", [0.1, "0.2"]),
        ("bounded_nonconvex", "sigma", np.array([0.1, -0.1])),
        ("noisy_quadratic", "x_init", np.nan),
        ("noisy_quadratic", "x_init", [1.0, [2.0]]),
        ("noisy_quadratic", "x_init", np.ones((2, 1))),
        ("synthetic_logistic", "x_init", [0.0, -np.inf]),
        # ints beyond the float range, which an inf bound would let through
        pytest.param("noisy_quadratic", "hessian_diag", 10**400, id="huge_int_hessian_diag"),
        pytest.param("noisy_quadratic", "sigma", [0.1, 10**400], id="huge_int_sigma_entry"),
        pytest.param("noisy_quadratic", "x_init", -10**400, id="huge_negative_int_x_init"),
        # a bound whose uniform draw's width 2b overflows
        ("noisy_quadratic", "sigma", 1e308),
        ("bounded_nonconvex", "sigma", [0.5, np.nextafter(np.finfo(float).max / 2, np.inf)]),
        ("synthetic_logistic", "feature_bound", 1e308),
        # in range, but with arrays larger than memory (numpy's MemoryError)
        # or than any array can be (its "array is too big" ValueError and,
        # from 2^63 on, "Maximum allowed dimension exceeded")
        ("noisy_quadratic", "d", 10**12),
        ("noisy_quadratic", "d", 2**62),
        ("bounded_nonconvex", "d", 2**62),
        ("synthetic_logistic", "n_samples", 10**12),
        ("noisy_quadratic", "d", 2**63),
        ("synthetic_logistic", "n_samples", 2**63),
    ])
    @pytest.mark.usefixtures("bounded_address_space")
    def test_typed_params_checked_not_converted(self, name, key, value):
        params = {"d": 2, key: value}
        with pytest.raises(InvalidConstant, match=f"problem.params.{key}"):
            make_problem(name, params)

    # in range, but a smoothness constant L_j, or their sum ||L||_1,
    # overflows: 2 a sqrt(d), h sqrt(d) summed over d = 2, and the
    # logistic's sqrt(d)/4 max |w_ij| ||w_i||
    @pytest.mark.parametrize("name, key, value", [
        ("bounded_nonconvex", "a", 1e308),
        ("noisy_quadratic", "hessian_diag", 1e308),
        ("synthetic_logistic", "feature_bound", 1e200),
    ])
    def test_overflowing_smoothness_names_its_key_without_warning(self, name, key, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConstant, match=f"problem.params.{key} is too large"):
                make_problem(name, {"d": 2, key: value})

    def test_other_value_errors_pass_through(self, monkeypatch):
        # only numpy's allocation errors become an InvalidConstant
        def failing_value(self, x):
            raise ValueError("math domain error")

        monkeypatch.setattr(NoisyQuadratic, "value", failing_value)
        with pytest.raises(ValueError, match="math domain error"):
            make_problem("noisy_quadratic", {"d": 2})

    def test_noise_bound_up_to_half_the_largest_float_accepted(self):
        # the largest noise bound whose draw width is finite, so every draw is
        p = make_problem("noisy_quadratic", {"d": 2, "sigma": np.finfo(float).max / 2})
        assert np.all(np.isfinite(p.presample_payloads(make_rng(0), 50)))

    def test_vector_params_accept_numbers_lists_and_arrays(self):
        for value in (2, 2.5, np.float64(2.5), [1, 2.5], np.array([1.0, 2.5])):
            p = make_problem("bounded_nonconvex", {"d": 2, "a": value, "sigma": value,
                                                   "x_init": value})
            np.testing.assert_array_equal(p.scale, np.broadcast_to(value, 2))

    def test_integer_types_accepted(self):
        p = make_problem("synthetic_logistic", {"d": np.int64(3), "n_samples": 4,
                                                "feature_bound": 2, "data_seed": 1})
        assert p.d == 3 and p.n_samples == 4
