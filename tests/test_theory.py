import math

import numpy as np
import pytest

from signstorm import (
    RHO_CROSSOVER,
    HyperParams,
    InvalidConstant,
    OutOfRange,
    RhoConstraintViolated,
    Schedule,
    TheoremInputs,
    c_rho,
    g_rho,
    locate_c_crossover,
    practical_params,
    theorem_bound,
    theorem_params,
)


def inputs(delta=1.0, L1=1.0, s1=1.0, T=1000, beta2=0.0, conf=0.05, d=1):
    return TheoremInputs(delta=delta, L1_norm=L1, sigma1_norm=s1, T=T,
                         beta2=beta2, confidence_delta=conf, d=d)


class TestPrefactors:
    def test_g_values(self):
        assert g_rho(0.0) == 3.0
        assert g_rho(0.25) == 3.0
        assert g_rho(0.999) == pytest.approx(6 * math.sqrt(0.999 * 0.001), rel=1e-12)

    def test_g_continuous_at_half_exactly(self):
        assert g_rho(0.5) == 3.0
        assert 6.0 * math.sqrt(0.5 * (1.0 - 0.5)) == 3.0  # both branches agree

    def test_g_domain(self):
        with pytest.raises(OutOfRange):
            g_rho(-0.01)
        with pytest.raises(OutOfRange):
            g_rho(1.0)

    def test_c_values(self):
        assert c_rho(0.0) == 0.5
        assert c_rho(0.999) == pytest.approx(6 * math.sqrt(0.999 * 0.001), rel=1e-12)

    def test_c_constant_up_to_crossover(self):
        for rho in np.linspace(0.0, RHO_CROSSOVER - 1e-9, 500):
            assert c_rho(float(rho)) == 0.5

    def test_c_strictly_decreasing_past_crossover(self):
        grid = np.linspace(RHO_CROSSOVER + 1e-6, 1 - 1e-9, 200)
        vals = [c_rho(float(r)) for r in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(v < 0.5 for v in vals)

    def test_crossover_location(self):
        found = locate_c_crossover()
        assert found == pytest.approx(RHO_CROSSOVER, abs=1e-9)
        assert found == pytest.approx(0.993007, abs=1e-5)


class TestTheoremParams:
    def test_reference_arithmetic_is_exact(self):
        hp = theorem_params(inputs())
        assert hp.beta1 == 0.99
        assert hp.eta == 0.01
        assert hp.rho == 0.0

    def test_zero_noise_collapses_beta1(self):
        assert theorem_params(inputs(s1=0.0)).beta1 == 0.0

    def test_underflowing_noise_collapses_beta1(self):
        # sigma1^2 T underflows to 0: the ratio is then +inf, not a division by zero
        assert theorem_params(inputs(s1=1e-200)).beta1 == 0.0

    def test_large_ratio_collapses_beta1(self):
        # delta * L1 >= sigma1^2 * T means the min clamps at 1
        assert theorem_params(inputs(delta=10.0, L1=200.0, T=1000)).beta1 == 0.0

    def test_rho_constraint(self):
        with pytest.raises(RhoConstraintViolated):
            theorem_params(inputs(s1=0.0, beta2=0.5))  # beta1 = 0 with beta2 > 0

    def test_zero_delta_rejected(self):
        with pytest.raises(InvalidConstant):
            theorem_params(inputs(delta=0.0))

    def test_input_validation(self):
        with pytest.raises(InvalidConstant):
            inputs(L1=0.0)
        with pytest.raises(InvalidConstant):
            inputs(T=0)
        with pytest.raises(InvalidConstant):
            inputs(conf=1.0)
        with pytest.raises(InvalidConstant):
            inputs(beta2=1.0)


class TestPracticalParams:
    def test_beta1_from_horizon(self):
        assert practical_params(alpha=1.0, beta=1.0, T=1000).beta1 == 0.99

    def test_published_configuration_satisfies_rho(self):
        # beta1=0.995, beta2=0.85 gives rho ~ 0.9266 < 1
        rho = HyperParams(eta=1.0, beta1=0.995, beta2=0.85).rho
        assert rho == pytest.approx(math.sqrt(0.85) / 0.995, rel=1e-12)
        assert rho == pytest.approx(0.9266, abs=5e-4)
        assert rho < 1.0
        assert c_rho(rho) == 0.5

    def test_per_step_schedule(self):
        hp = practical_params(alpha=2.0, beta=0.5, T=10_000, per_step=True)
        assert hp.schedule is Schedule.PER_STEP_SQRT_T
        assert hp.step_size(4) == 2.0 * hp.step_size(16)

    def test_constant_schedule_divides_by_sqrt_T(self):
        per_t = practical_params(alpha=1.0, beta=1.0, T=400, per_step=True)
        by_T = practical_params(alpha=1.0, beta=1.0, T=400, per_step=False)
        assert by_T.step_size(7) == pytest.approx(per_t.eta / 20.0, rel=1e-15)

    def test_rho_enforced(self):
        # beta1 = 1 - 1000^(-2/3) = 0.99, so rho = sqrt(0.99)/0.99 ~ 1.005
        with pytest.raises(RhoConstraintViolated):
            practical_params(alpha=1.0, beta=1.0, T=1000, beta2=0.99)

    def test_validation(self):
        with pytest.raises(InvalidConstant):
            practical_params(alpha=0.0, beta=1.0, T=100)
        with pytest.raises(InvalidConstant):
            practical_params(alpha=1.0, beta=2.0, T=100)
        for alpha in (math.inf, math.nan):
            with pytest.raises(InvalidConstant, match="alpha"):
                practical_params(alpha=alpha, beta=1.0, T=100)
        for beta2 in (-0.5, 1.0, math.nan):
            with pytest.raises(InvalidConstant, match="beta2"):
                practical_params(alpha=1.0, beta=1.0, T=100, beta2=beta2)
        # a positive alpha whose step size underflows to 0, under either schedule
        for per_step in (False, True):
            with pytest.raises(InvalidConstant, match="alpha"):
                practical_params(alpha=5e-324, beta=1.0, T=100, per_step=per_step)


class TestTheoremBound:
    def test_noiseless_reduces_to_first_term(self):
        inp = inputs(s1=0.0, T=10_000, d=5)
        rho = 0.0
        expected = (math.log(5 * 10_000 / 0.05) / ((1 - rho) * c_rho(rho))
                    * math.sqrt(1.0 * 1.0 / 10_000))
        assert theorem_bound(inp, rho) == pytest.approx(expected, rel=1e-12)

    def test_noiseless_scaling_is_sqrt_T_times_log(self):
        vals = {}
        for T in (10_000, 1_000_000):
            inp = inputs(s1=0.0, T=T, d=5)
            vals[T] = theorem_bound(inp, 0.0) * math.sqrt(T) / math.log(5 * T / 0.05)
        assert vals[10_000] == pytest.approx(vals[1_000_000], rel=1e-12)

    def test_noisy_dominant_term_cube_root_scaling(self):
        # huge sigma makes the T^(-1/3) noise term dominate; octupling T halves it
        lo = theorem_bound(inputs(s1=100.0, T=1_000_000, d=1), 0.0)
        hi = theorem_bound(inputs(s1=100.0, T=8_000_000, d=1), 0.0)
        assert lo / hi == pytest.approx(2.0, rel=0.02)

    def test_corollary_form_at_beta2_zero(self):
        # rho = 0: (1 - rho) = 1 and c(rho) = 1/2 exactly
        inp = inputs(delta=2.0, L1=3.0, s1=1.5, T=5000, d=4)
        D, L1, S1, T = 2.0, 3.0, 1.5, 5000
        log_term = math.log(4 * T / 0.05)
        expected = (log_term / 0.5 * (math.sqrt(D * L1 / T) + (D * L1 * S1 / T) ** (1 / 3))
                    + S1 / 0.5 * (1 / T + (S1 ** 4 / (D ** 2 * L1 ** 2 * T)) ** (1 / 3)))
        assert theorem_bound(inp, 0.0) == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_horizon(self):
        last = math.inf
        for T in np.unique(np.logspace(math.log10(2), 5, 60).astype(int)):
            val = theorem_bound(inputs(T=int(T), d=5), 0.0)
            assert val <= last * (1 + 1e-12)
            last = val

    def test_rho_domain(self):
        with pytest.raises(RhoConstraintViolated):
            theorem_bound(inputs(), 1.0)

    def test_zero_delta_with_noise_rejected(self):
        with pytest.raises(InvalidConstant):
            theorem_bound(inputs(delta=0.0), 0.0)
