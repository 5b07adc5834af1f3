import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from signstorm import optim
from signstorm import (
    DimensionMismatch,
    GradientPair,
    HyperParams,
    NonFiniteValue,
    OptimizerKind,
    OptimizerState,
    Schedule,
    UnsupportedKind,
    step,
    storm_decomposition,
)


def fresh_state(x0):
    return OptimizerState.initial(np.asarray(x0, dtype=np.float64))


def scalar_loop_oracle(x, m_prev, v_prev, g_curr, g_prev, hp, t):
    """Independent per-coordinate recomputation of the three update lines."""
    d = len(x)
    m = np.empty(d)
    v = np.empty(d)
    x_new = np.empty(d)
    for j in range(d):
        if t == 1:
            m[j] = g_curr[j]
        else:
            m[j] = hp.beta1 * (m_prev[j] - g_prev[j]) + g_curr[j]
        v[j] = hp.beta2 * v_prev[j] + (1.0 - hp.beta2) * m[j] ** 2
        denom = math.sqrt(v[j]) + hp.eps_guard
        ratio = m[j] / denom if denom > 0 else 0.0
        x_new[j] = x[j] - hp.step_size(t) * ratio
    return x_new, m, v


class TestHyperParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HyperParams(eta=0.0, beta1=0.0, beta2=0.0)
        with pytest.raises(ValueError):
            HyperParams(eta=0.1, beta1=1.0, beta2=0.0)
        with pytest.raises(ValueError):
            HyperParams(eta=0.1, beta1=0.5, beta2=-0.1)
        with pytest.raises(ValueError):
            HyperParams(eta=0.1, beta1=0.5, beta2=0.5, eps_guard=-1e-9)

    def test_rho_conventions(self):
        assert HyperParams(0.1, 0.0, 0.0).rho == 0.0
        assert HyperParams(0.1, 0.0, 0.5).rho == math.inf
        assert HyperParams(0.1, 0.9, 0.81).rho == pytest.approx(1.0)

    def test_per_step_schedule_quarters(self):
        hp = HyperParams(1.0, 0.0, 0.0, schedule=Schedule.PER_STEP_SQRT_T)
        assert hp.step_size(4) == 2.0 * hp.step_size(16)

    @settings(max_examples=100, deadline=None)
    @given(eta=st.floats(5e-324, 1e308), T=st.integers(1, 3000),
           schedule=st.sampled_from(list(Schedule)))
    @example(eta=1.0, T=1, schedule=Schedule.PER_STEP_SQRT_T)
    @example(eta=0.1, T=2000, schedule=Schedule.PER_STEP_SQRT_T)
    def test_step_sizes_match_frozen_list_form(self, eta, T, schedule):
        hp = HyperParams(eta, 0.5, 0.0, schedule=schedule)
        if schedule is Schedule.PER_STEP_SQRT_T:
            frozen = np.array([eta / math.sqrt(t) for t in range(1, T + 1)])
        else:
            frozen = np.array([eta] * T)
        got = hp.step_sizes(T)
        assert got.dtype == np.float64 and got.tobytes() == frozen.tobytes()


class TestSignStormStep:
    def test_first_step_sign_branch(self):
        # d=1, t=1, g=(2), beta2=0, eta=0.5: m=g, v=g^2, x moves by eta
        state = fresh_state([0.0])
        hp = HyperParams(eta=0.5, beta1=0.9, beta2=0.0)
        out = step(state, GradientPair(np.array([2.0])), hp)
        assert out.m[0] == 2.0
        assert out.v[0] == 4.0
        assert out.x[0] == -0.5
        assert out.t == 2
        assert out.prev_x[0] == 0.0

    def test_zero_over_zero_is_zero_step(self):
        # m=0, v=0 and no guard: displacement 0 by the 0/0 = 0 convention
        state = fresh_state([1.0])
        hp = HyperParams(eta=0.5, beta1=0.9, beta2=0.0)
        out = step(state, GradientPair(np.array([0.0])), hp)
        assert out.m[0] == 0.0 and out.v[0] == 0.0
        assert out.x[0] == 1.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        hp = HyperParams(eta=0.05, beta1=0.9, beta2=0.81)
        state = fresh_state(rng.standard_normal(3))
        for t in range(1, 30):
            g_curr = rng.standard_normal(3)
            g_prev = rng.standard_normal(3) if t > 1 else None
            ox, om, ov = scalar_loop_oracle(state.x, state.m, state.v, g_curr,
                                            g_prev, hp, t)
            state = step(state, GradientPair(g_curr, g_prev), hp)
            np.testing.assert_allclose(state.m, om, rtol=1e-15, atol=0)
            np.testing.assert_allclose(state.v, ov, rtol=1e-15, atol=0)
            np.testing.assert_allclose(state.x, ox, rtol=1e-15, atol=1e-300)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal(5)
        gp = rng.standard_normal(5)
        hp = HyperParams(eta=0.1, beta1=0.7, beta2=0.3, eps_guard=1e-10)
        state = fresh_state(rng.standard_normal(5))
        state = step(state, GradientPair(g), hp)
        a = step(state, GradientPair(gp, g), hp)
        b = step(state, GradientPair(gp, g), hp)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.m, b.m)
        assert np.array_equal(a.v, b.v)

    def test_no_observable_aliasing(self):
        state = fresh_state([1.0, 2.0])
        hp = HyperParams(eta=0.1, beta1=0.5, beta2=0.5)
        out = step(state, GradientPair(np.array([1.0, 1.0])), hp)
        out.prev_x[0] = 123.0
        assert state.x[0] == 1.0

    def test_dimension_mismatch(self):
        state = fresh_state([1.0, 2.0])
        hp = HyperParams(eta=0.1, beta1=0.5, beta2=0.5)
        with pytest.raises(DimensionMismatch):
            step(state, GradientPair(np.array([1.0, 2.0, 3.0])), hp)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_output_raises(self):
        state = fresh_state([1.0])
        hp = HyperParams(eta=0.1, beta1=0.5, beta2=0.5)
        with pytest.raises(NonFiniteValue):
            step(state, GradientPair(np.array([np.inf])), hp)


class TestInvariants:
    """Randomized sweeps over the documented algebraic properties."""

    @pytest.mark.parametrize("seed", range(8))
    def test_v_nonnegative_and_ratio_bounded(self, seed):
        rng = np.random.default_rng(seed)
        beta1 = rng.uniform(0.0, 0.999)
        beta2 = rng.uniform(0.0, 0.999)
        hp = HyperParams(eta=10 ** rng.uniform(-4, 0), beta1=beta1, beta2=beta2)
        cap = 1.0 / math.sqrt(1.0 - beta2)
        state = fresh_state(rng.standard_normal(6))
        g_old = None
        for t in range(1, 60):
            g = rng.standard_normal(6) * 10 ** rng.uniform(-3, 3)
            state = step(state, GradientPair(g, g_old), hp)
            g_old = g
            assert np.all(state.v >= 0.0)
            ratio = np.where(state.v > 0, np.abs(state.m) / np.sqrt(state.v), 0.0)
            assert np.all(ratio <= cap * (1.0 + 1e-12))

    @pytest.mark.parametrize("seed", range(8))
    def test_sign_step_degeneracy_bitlevel(self, seed):
        # beta2 = 0, no guard: the update term eta*m/sqrt(v) is exactly +-eta
        # per coordinate (or exactly 0 where m = 0), and |m|/sqrt(v) is
        # exactly 1 where m != 0
        rng = np.random.default_rng(100 + seed)
        eta = float(10 ** rng.uniform(-4, 0))
        hp = HyperParams(eta=eta, beta1=0.9, beta2=0.0)
        state = fresh_state(rng.standard_normal(5))
        g_old = None
        for t in range(1, 40):
            g = rng.standard_normal(5) * 10 ** rng.uniform(-6, 6)
            new = step(state, GradientPair(g, g_old), hp)
            moved = new.m != 0.0
            ratio = np.zeros(5)
            np.divide(np.abs(new.m), np.sqrt(new.v), out=ratio, where=moved)
            assert np.all(ratio[moved] == 1.0)
            assert np.all(ratio[~moved] == 0.0)
            increment = np.zeros(5)
            np.divide(new.m, np.sqrt(new.v), out=increment, where=moved)
            increment *= eta
            assert np.all(np.abs(increment[moved]) == eta)
            assert np.all(increment[~moved] == 0.0)
            state, g_old = new, g


class TestBaselines:
    def test_beta1_zero_collapse_matches_signstorm(self):
        rng = np.random.default_rng(5)
        hp = HyperParams(eta=0.07, beta1=0.0, beta2=0.6)
        s1 = fresh_state(np.ones(4))
        s2 = fresh_state(np.ones(4))
        g_old = None
        for t in range(1, 50):
            g = rng.standard_normal(4)
            s1 = step(s1, GradientPair(g, g_old), hp)
            s2 = step(s2, GradientPair(g, g_old), hp,
                      OptimizerKind.GENERALIZED_SIGN_SGD)
            assert np.array_equal(s1.x, s2.x)
            assert np.array_equal(s1.m, s2.m)
            assert np.array_equal(s1.v, s2.v)
            g_old = g

    def test_storm_plain_update(self):
        hp = HyperParams(eta=0.25, beta1=0.9, beta2=0.0)
        state = fresh_state([1.0, -1.0])
        g = np.array([2.0, 4.0])
        out = step(state, GradientPair(g), hp, OptimizerKind.STORM)
        np.testing.assert_array_equal(out.x, state.x - 0.25 * g)
        assert np.array_equal(out.v, state.v)

    def test_l2_normalized_unit_step(self):
        hp = HyperParams(eta=0.3, beta1=0.5, beta2=0.0)
        state = fresh_state([0.0, 0.0, 0.0])
        g = np.array([3.0, 4.0, 0.0])
        out = step(state, GradientPair(g), hp,
                   OptimizerKind.L2_NORMALIZED_STORM)
        assert np.linalg.norm(out.x - state.x) == pytest.approx(0.3, rel=1e-15)

    def test_l2_normalized_zero_estimator(self):
        hp = HyperParams(eta=0.3, beta1=0.5, beta2=0.0)
        state = fresh_state([1.0])
        out = step(state, GradientPair(np.array([0.0])), hp,
                   OptimizerKind.L2_NORMALIZED_STORM)
        assert out.x[0] == 1.0

    def test_sgd_and_momentum(self):
        hp = HyperParams(eta=0.1, beta1=0.5, beta2=0.0)
        state = fresh_state([1.0])
        g = np.array([2.0])
        out = step(state, GradientPair(g), hp, OptimizerKind.SGD)
        assert out.x[0] == pytest.approx(0.8)
        out = step(state, GradientPair(g), hp, OptimizerKind.MOMENTUM_SGD)
        # m = 0.5*0 + 0.5*2 = 1
        assert out.m[0] == 1.0
        assert out.x[0] == pytest.approx(0.9)

    def test_adam_matches_reference(self):
        # reference: bias-corrected Adam with the standard published recurrences
        rng = np.random.default_rng(9)
        hp = HyperParams.adam_defaults(eta=0.01)
        state = fresh_state(rng.standard_normal(3))
        m_ref = np.zeros(3)
        v_ref = np.zeros(3)
        x_ref = state.x.copy()
        for t in range(1, 25):
            g = rng.standard_normal(3)
            m_ref = 0.9 * m_ref + 0.1 * g
            v_ref = 0.999 * v_ref + 0.001 * g * g
            m_hat = m_ref / (1 - 0.9 ** t)
            v_hat = v_ref / (1 - 0.999 ** t)
            x_ref = x_ref - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            state = step(state, GradientPair(g), hp, OptimizerKind.ADAM)
            np.testing.assert_allclose(state.x, x_ref, rtol=1e-12)

    def test_unsupported_kind(self):
        state = fresh_state([1.0])
        hp = HyperParams(eta=0.1, beta1=0.5, beta2=0.0)
        with pytest.raises(UnsupportedKind):
            step(state, GradientPair(np.array([1.0])), hp, "nonsense")

    def test_default_kind_is_signstorm(self):
        state = fresh_state([1.0])
        hp = HyperParams(eta=0.1, beta1=0.5, beta2=0.0)
        a = step(state, GradientPair(np.array([2.0])), hp)
        b = step(state, GradientPair(np.array([2.0])), hp, OptimizerKind.SIGNSTORM)
        assert np.array_equal(a.x, b.x)


class TestStormDecomposition:
    def test_beta1_zero(self):
        g = GradientPair(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        part_i, part_ii = storm_decomposition(np.array([9.0, 9.0]), g, 0.0)
        np.testing.assert_array_equal(part_ii, [0.0, 0.0])
        np.testing.assert_array_equal(part_i, g.g_curr)

    def test_equal_gradients_kill_correction(self):
        g = np.array([1.0, -2.0])
        _, part_ii = storm_decomposition(np.array([3.0, 3.0]),
                                         GradientPair(g, g.copy()), 0.9)
        np.testing.assert_array_equal(part_ii, [0.0, 0.0])

    def test_parts_sum_to_estimator(self):
        rng = np.random.default_rng(21)
        hp = HyperParams(eta=0.1, beta1=0.9, beta2=0.5)
        state = fresh_state(rng.standard_normal(6))
        state = step(state, GradientPair(rng.standard_normal(6)), hp)
        for _ in range(30):
            pair = GradientPair(rng.standard_normal(6), rng.standard_normal(6))
            part_i, part_ii = storm_decomposition(state.m, pair, hp.beta1)
            state = step(state, pair, hp)
            np.testing.assert_allclose(part_i + part_ii, state.m,
                                       rtol=1e-15, atol=1e-300)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            storm_decomposition(np.zeros(2),
                                GradientPair(np.zeros(3), np.zeros(3)), 0.5)


def random_state(gen, d, t, zero, scale=1.0):
    """A state at step t with x, m, v and both gradients drawn from gen,
    m and the gradients times ``scale``, and m, v and both gradients zero
    on the mask ``zero``."""
    x = gen.standard_normal(d)
    x[gen.random(d) < 0.2] = -0.0
    m = gen.standard_normal(d) * scale
    v = gen.uniform(0.0, 2.0, d)
    g_curr, g_prev = gen.standard_normal(d) * scale, gen.standard_normal(d) * scale
    for arr in (m, v, g_curr, g_prev):
        arr[zero] = 0.0
    state = OptimizerState(x=x, m=m, v=v, prev_x=x.copy(), t=t)
    return state, GradientPair(g_curr, g_prev)


def step_row(state, grads, hp, kind=OptimizerKind.SIGNSTORM):
    """A copy of the state as the one row of a (1, d) batch, stepped in
    place as the engine steps its rows: ``_advance`` writes the new x over
    the copy of prev_x, then ``_finite_rows`` marks the rows left finite.
    Returns the new (1, d) x and that mask."""
    x, m, v, out = (a[None].copy() for a in (state.x, state.m, state.v, state.prev_x))
    optim._advance(x, m, v, state.t, GradientPair(grads.g_curr[None], grads.g_prev[None]),
                   hp, kind, out, optim.StepWork(x.shape))
    return out, optim._finite_rows(out, m, v)


class TestConventionProperties:
    """Property tests of the documented edge conventions, through both the
    per-step and the seed-batched paths."""

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from([OptimizerKind.SIGNSTORM, OptimizerKind.GENERALIZED_SIGN_SGD,
                                 OptimizerKind.ADAM, OptimizerKind.L2_NORMALIZED_STORM]),
           d=st.integers(1, 6), t=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           beta1=st.floats(0.0, 0.99), beta2=st.floats(0.0, 0.99),
           all_zero=st.booleans())
    def test_zero_over_zero_leaves_coordinate_in_place(self, kind, d, t, seed, beta1,
                                                       beta2, all_zero):
        # where the update's numerator and denominator are both 0 the step
        # is 0: the coordinate keeps its bits, and no division warns
        gen = np.random.default_rng(seed)
        zero = np.ones(d, dtype=bool) if all_zero else gen.random(d) < 0.5
        zero[gen.integers(0, d)] = True
        state, grads = random_state(gen, d, t, zero)
        hp = HyperParams(eta=0.1, beta1=beta1, beta2=beta2)
        with np.errstate(divide="raise", invalid="raise"):
            new = step(state, grads, hp, kind)
            row_x, finite = step_row(state, grads, hp, kind)
        assert new.x[zero].tobytes() == state.x[zero].tobytes()
        assert np.all(new.m[zero] == 0.0)
        assert finite is None and row_x[0].tobytes() == new.x.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 8), t=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           eta=st.floats(1e-6, 10.0), beta1=st.floats(0.0, 0.99),
           per_step=st.booleans(), log_scale=st.floats(-100.0, 100.0))
    def test_beta2_zero_step_is_sign_step(self, d, t, seed, eta, beta1, per_step, log_scale):
        # v = m^2 and sqrt(m^2) = |m| while m^2 neither overflows nor
        # underflows, so x moves by exactly eta_t * sign(m), and not at m = 0
        gen = np.random.default_rng(seed)
        zero = gen.random(d) < 0.3
        state, grads = random_state(gen, d, t, zero, scale=10.0 ** log_scale)
        schedule = Schedule.PER_STEP_SQRT_T if per_step else Schedule.CONSTANT
        hp = HyperParams(eta=eta, beta1=beta1, beta2=0.0, schedule=schedule)
        new = step(state, grads, hp)
        moving = np.abs(new.m[new.m != 0.0])
        assume(np.all((moving > 1e-150) & (moving < 1e150)))
        expected = state.x - hp.step_size(t) * np.sign(new.m)
        assert new.x.tobytes() == expected.tobytes()
        assert new.x[new.m == 0.0].tobytes() == state.x[new.m == 0.0].tobytes()
        row_x, _ = step_row(state, grads, hp)
        assert row_x[0].tobytes() == expected.tobytes()


class TestRowNorms:
    # d around numpy's pairwise-sum block of 128 values; any leading axes
    @settings(max_examples=150, deadline=None)
    @given(shape=st.sampled_from([(1,), (7,), (1, 1), (2, 3), (70, 33), (3, 4, 129),
                                  (2, 128), (5, 200)]),
           seed=st.integers(0, 2**32 - 1))
    @example(shape=(1, 1), seed=0)
    def test_each_row_is_its_linalg_norm(self, shape, seed):
        gen = np.random.default_rng(seed)
        # scales far apart, with +-0, inf and NaN entries
        m = gen.standard_normal(shape) * 10.0 ** gen.integers(-300, 300, shape[:-1] + (1,))
        m[gen.random(shape) < 0.05] = gen.choice([0.0, -0.0, np.inf, -np.inf, np.nan])
        with np.errstate(all="ignore"):
            norms = optim._row_norms(m)
            expected = [np.linalg.norm(row) for row in m.reshape(-1, shape[-1])]
        assert norms.shape == shape[:-1] + (1,)
        assert norms.tobytes() == np.array(expected).tobytes()
