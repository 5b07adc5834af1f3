import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signstorm import (
    DegenerateFit,
    EmptyInput,
    ExperimentReport,
    ExperimentSpec,
    HyperParams,
    OptimizerKind,
    OutOfRange,
    derive_seed,
    fit_rate,
    make_problem,
    quantile,
    run_experiment,
    run_trial,
    write_trace_csv,
)
from signstorm import harness
from signstorm.harness import resolve_hyperparams, trace_stride
from signstorm.errors import ConfigError


def small_problem(sigma=0.3, d=4):
    return make_problem("noisy_quadratic",
                        {"d": d, "hessian_diag": 1.0, "sigma": sigma, "x_init": 1.0})


def small_spec(**overrides):
    base = dict(
        problem_name="noisy_quadratic",
        problem_params={"d": 4, "hessian_diag": 1.0, "sigma": 0.3, "x_init": 1.0},
        optimizers=[OptimizerKind.SIGNSTORM, OptimizerKind.GENERALIZED_SIGN_SGD],
        T_grid=[50, 100, 200],
        n_seeds=4,
        delta=0.1,
        param_mode="theorem",
        master_seed=99,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestQuantile:
    def test_lower_interpolation_rule(self):
        assert quantile([1, 2, 3, 4], 0.5) == 2

    def test_extremes(self):
        assert quantile([3, 1, 2], 1.0) == 3
        assert quantile([3, 1, 2], 0.0) == 1

    def test_monte_carlo_sanity(self):
        rng = np.random.default_rng(0)
        draws = rng.uniform(0, 1, 200)
        assert quantile(draws, 0.95) == pytest.approx(0.95, abs=0.05)

    def test_monotone_in_level(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal(37)
        levels = np.linspace(0, 1, 23)
        vals = [quantile(samples, float(l)) for l in levels]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_errors(self):
        with pytest.raises(EmptyInput):
            quantile([], 0.5)
        with pytest.raises(OutOfRange):
            quantile([1.0], 1.5)


class TestFitRate:
    def test_exact_cube_root_law(self):
        pts = [(T, T ** (-1 / 3)) for T in (100, 1000, 10_000, 100_000)]
        fit = fit_rate(pts)
        assert fit.slope == pytest.approx(-1 / 3, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_scaled_square_root_law(self):
        c = 7.5
        fit = fit_rate([(T, c * T ** -0.5) for T in (10, 100, 1000)])
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(c), abs=1e-10)

    def test_hand_ols_on_noisy_triple(self):
        pts = [(10.0, 2.0), (100.0, 1.1), (1000.0, 0.7)]
        x = np.log([p[0] for p in pts])
        y = np.log([p[1] for p in pts])
        slope = np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2)
        fit = fit_rate(pts)
        assert fit.slope == pytest.approx(slope, rel=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateFit):
            fit_rate([(10, 1.0), (100, 0.5)])
        with pytest.raises(DegenerateFit):
            fit_rate([(10, 1.0), (100, 0.0), (1000, 0.5)])


class TestSeedDerivation:
    def test_no_collisions_over_a_million(self):
        seen = set()
        for oi in range(10):
            for ti in range(10):
                for si in range(10_000):
                    seen.add(derive_seed(12345, oi, ti, si))
        assert len(seen) == 1_000_000

    def test_depends_on_every_index(self):
        base = derive_seed(1, 2, 3, 4)
        assert base != derive_seed(2, 2, 3, 4)
        assert base != derive_seed(1, 3, 3, 4)
        assert base != derive_seed(1, 2, 4, 4)
        assert base != derive_seed(1, 2, 3, 5)

    def test_index_order_matters(self):
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


class TestRunTrial:
    def test_bit_identical_repeat(self):
        p = small_problem()
        hp = HyperParams(eta=0.02, beta1=0.9, beta2=0.5)
        a = run_trial(p, OptimizerKind.SIGNSTORM, hp, 300, seed=5,
                      collect_diagnostics=True)
        b = run_trial(p, OptimizerKind.SIGNSTORM, hp, 300, seed=5,
                      collect_diagnostics=True)
        for field in ("loss", "grad_l1", "grad_l2", "step_l2", "eps_l1"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_noiseless_sign_descent_monotone(self):
        # sigma=0, beta1=beta2=0, small eta: each coordinate walks toward zero
        # by exactly eta per step, so the L1 gradient norm decreases until the
        # iterate enters the +-eta band around the origin and stays there
        p = small_problem(sigma=0.0, d=6)
        hp = HyperParams(eta=0.01, beta1=0.0, beta2=0.0)
        trace = run_trial(p, OptimizerKind.SIGNSTORM, hp, 120, seed=1)
        descent_steps = int(1.0 / 0.01) - 1  # from |x_j| = 1 down to the band
        diffs = np.diff(trace.grad_l1[:descent_steps])
        assert np.all(diffs <= 1e-12)
        assert np.all(trace.grad_l1[descent_steps:] <= 6 * 0.01 + 1e-9)

    def test_beta1_zero_equivalence(self):
        p = small_problem()
        hp = HyperParams(eta=0.02, beta1=0.0, beta2=0.4)
        a = run_trial(p, OptimizerKind.SIGNSTORM, hp, 400, seed=3)
        b = run_trial(p, OptimizerKind.GENERALIZED_SIGN_SGD, hp, 400, seed=3)
        np.testing.assert_allclose(a.grad_l1, b.grad_l1, rtol=1e-12, atol=0)
        np.testing.assert_allclose(a.step_l2, b.step_l2, rtol=1e-12, atol=0)

    def test_headline_is_min_over_trace(self):
        p = small_problem()
        hp = HyperParams(eta=0.05, beta1=0.9, beta2=0.0)
        trace = run_trial(p, OptimizerKind.SIGNSTORM, hp, 100, seed=2)
        assert trace.headline == np.min(trace.grad_l1)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_nonfinite_abort_records_partial_trace(self):
        p = small_problem(sigma=0.0)
        hp = HyperParams(eta=1e300, beta1=0.0, beta2=0.0)
        trace = run_trial(p, OptimizerKind.SGD, hp, 50, seed=1)
        assert trace.aborted
        assert trace.abort_reason != ""
        assert trace.t.size < 50

    def test_finite_sum_problem_runs(self):
        p = make_problem("synthetic_logistic",
                         {"d": 3, "n_samples": 8, "feature_bound": 1.0, "x_init": 0.0})
        hp = HyperParams(eta=0.05, beta1=0.9, beta2=0.0)
        trace = run_trial(p, OptimizerKind.SIGNSTORM, hp, 100, seed=4)
        assert not trace.aborted
        assert trace.grad_l1.size == 100


class TestRunExperiment:
    def test_single_seed_quantiles_collapse(self):
        spec = small_spec(n_seeds=1, T_grid=[50])
        report = run_experiment(spec, max_workers=1)
        cell = report.cells[0]
        q = cell["quantiles"]
        assert q["0.5"] == q["0.9"] == q["1-delta"]

    def test_worker_count_invariance(self):
        spec = small_spec()
        a = run_experiment(spec, max_workers=1).to_json()
        b = run_experiment(spec, max_workers=4).to_json()
        assert a == b

    def test_worker_count_follows_cpu_affinity(self, monkeypatch):
        # an affinity mask or cpuset of one CPU means one worker, whatever
        # the host's CPU count
        monkeypatch.delenv("SIGNSTORM_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert harness._worker_count() == 1

    def test_report_structure(self):
        spec = small_spec()
        report = run_experiment(spec, max_workers=2)
        doc = json.loads(report.to_json())
        assert set(doc) == {"config", "master_seed", "cells", "rate_fits", "violations"}
        assert len(doc["cells"]) == 2 * 3
        assert doc["master_seed"] == 99
        for cell in doc["cells"]:
            assert set(cell) == {"optimizer", "T", "quantiles", "n_fail"}
        assert set(doc["rate_fits"]) == {"signstorm", "generalized_sign_sgd"}

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_aborts_become_cell_failures(self):
        spec = small_spec(
            problem_params={"d": 4, "hessian_diag": 1e150, "sigma": 0.0, "x_init": 1e150},
            optimizers=[OptimizerKind.SGD],
            T_grid=[20],
            n_seeds=2,
            param_mode="practical",
            alpha=1e200,
        )
        report = run_experiment(spec, max_workers=1)
        assert report.cells[0]["n_fail"] == 2
        assert report.cells[0]["quantiles"]["0.5"] is None
        assert report.violations["nonfinite_aborts"] == 2

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            small_spec(T_grid=[100, 100])
        with pytest.raises(ConfigError):
            small_spec(n_seeds=0)
        with pytest.raises(ConfigError):
            small_spec(param_mode="bogus")

    def test_adam_gets_stock_configuration(self):
        spec = small_spec(optimizers=[OptimizerKind.ADAM])
        p = spec.build_problem()
        hp = resolve_hyperparams(spec, p, OptimizerKind.ADAM, 100)
        assert (hp.beta1, hp.beta2, hp.eps_guard) == (0.9, 0.999, 1e-8)


class TestTraceCsv:
    def test_round_trip_format(self, tmp_path):
        p = small_problem()
        hp = HyperParams(eta=0.05, beta1=0.9, beta2=0.0)
        trace = run_trial(p, OptimizerKind.SIGNSTORM, hp, 40, seed=1,
                          collect_diagnostics=True)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        raw = path.read_bytes().decode("utf-8")
        lines = raw.split("\n")
        assert lines[0] == "t,loss,grad_l1,grad_l2,eps_l1,step_l2"
        assert len(lines) == 42  # header + 40 rows + trailing newline
        assert "\r" not in raw
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == trace.loss[0]
        assert float(first[4]) == trace.eps_l1[0]

    def test_missing_diagnostics_column_empty(self, tmp_path):
        p = small_problem()
        hp = HyperParams(eta=0.05, beta1=0.9, beta2=0.0)
        trace = run_trial(p, OptimizerKind.SIGNSTORM, hp, 5, seed=1)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        row = path.read_text().split("\n")[1].split(",")
        assert row[4] == ""

    def test_stride_caps_rows(self):
        assert trace_stride(10) == 1
        assert trace_stride(1_000_000) == 1
        assert trace_stride(3_000_000) == 3


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestReductionProperties:
    """Property tests of quantile, fit_rate and the report's JSON form."""

    @settings(max_examples=200, deadline=None)
    @given(samples=st.lists(finite, min_size=1, max_size=60), level=st.floats(0.0, 1.0),
           other=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_quantile_invariants(self, samples, level, other, seed):
        q = quantile(samples, level)
        assert q in samples
        # at least the level's share of the samples, and one, lies at or below q
        k = min(max(math.ceil(level * len(samples)), 1), len(samples))
        assert sum(s <= q for s in samples) >= k
        assert sum(s < q for s in samples) < k
        shuffled = list(np.random.default_rng(seed).permutation(samples))
        assert quantile(shuffled, level) == q
        lo, hi = sorted((level, other))
        assert quantile(samples, lo) <= quantile(samples, hi)
        assert quantile(samples, 0.0) == min(samples)
        assert quantile(samples, 1.0) == max(samples)

    @settings(max_examples=200, deadline=None)
    @given(Ts=st.lists(st.integers(1, 10**6), min_size=3, max_size=8, unique=True),
           slope=st.floats(-2.0, 2.0), log_c=st.floats(-5.0, 5.0),
           noise=st.lists(st.floats(-0.5, 0.5), min_size=8, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_fit_rate_invariants(self, Ts, slope, log_c, noise, seed):
        exact = fit_rate([(T, math.exp(log_c) * T ** slope) for T in Ts])
        assert exact.slope == pytest.approx(slope, abs=1e-9)
        assert exact.intercept == pytest.approx(log_c, abs=1e-6)
        assert exact.n_points == len(Ts)
        if abs(slope) >= 1e-3:  # a flatter law leaves only rounding to explain
            assert exact.r2 == pytest.approx(1.0, abs=1e-9)

        pts = [(T, math.exp(log_c + e) * T ** slope) for T, e in zip(Ts, noise)]
        fit = fit_rate(pts)
        assert fit.r2 <= 1.0 + 1e-12
        reordered = fit_rate([pts[i] for i in np.random.default_rng(seed).permutation(len(pts))])
        assert reordered.slope == pytest.approx(fit.slope, rel=1e-9, abs=1e-12)
        # scaling every metric moves only the intercept
        scaled = fit_rate([(T, 3.0 * m) for T, m in pts])
        assert scaled.slope == pytest.approx(fit.slope, rel=1e-9, abs=1e-12)
        assert scaled.intercept == pytest.approx(fit.intercept + math.log(3.0), abs=1e-9)

    json_leaf = st.none() | st.booleans() | st.integers(-2**63, 2**63) | finite | st.text()
    json_value = st.recursive(json_leaf, lambda inner: st.lists(inner, max_size=4)
                              | st.dictionaries(st.text(), inner, max_size=4), max_leaves=12)

    @settings(max_examples=150, deadline=None)
    @given(config=st.dictionaries(st.text(), json_value, max_size=5),
           master_seed=st.integers(0, 2**64 - 1),
           cells=st.lists(st.dictionaries(st.text(), json_value, max_size=4), max_size=5),
           rate_fits=st.dictionaries(st.text(), json_value, max_size=3),
           violations=st.dictionaries(st.text(), st.integers(0, 10**6), max_size=3))
    def test_report_json_round_trips(self, config, master_seed, cells, rate_fits,
                                     violations):
        report = ExperimentReport(config, master_seed, cells, rate_fits, violations)
        text = report.to_json()
        again = ExperimentReport.from_json(text)
        assert again == report
        assert again.to_json() == text

    def test_real_report_round_trips(self):
        report = run_experiment(small_spec(), max_workers=1)
        assert ExperimentReport.from_json(report.to_json()) == report
