import json

import pytest

from signstorm import (
    NonFiniteValue,
    derive_seed,
    make_problem,
    practical_params,
    run_with_diagnostics,
)
from signstorm.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_OK, RunConfig, main
from signstorm.errors import ConfigError


def base_config(out_dir):
    return {
        "problem": {"name": "noisy_quadratic",
                    "params": {"d": 3, "hessian_diag": 1.0, "sigma": 0.25,
                               "x_init": 1.0}},
        "optimizers": ["signstorm"],
        "param_mode": "theorem",
        "T_grid": [60],
        "n_seeds": 2,
        "delta": 0.1,
        "master_seed": 5,
        "output_dir": str(out_dir),
        "check": {"T": 80, "n_seeds": 3, "lemma1_trials": 200, "n_probes": 200},
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigValidation:
    def test_missing_field_named(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        del cfg["n_seeds"]
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match="n_seeds"):
            RunConfig.load(path)
        assert main(["run", path]) == EXIT_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
            RunConfig.load(write_config(tmp_path, cfg))

    def test_unknown_optimizer_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["optimizers"] = ["sgd", "adamw"]
        with pytest.raises(ConfigError, match="optimizer"):
            RunConfig.load(write_config(tmp_path, cfg))

    def test_bad_ranges_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["delta"] = 1.5
        with pytest.raises(ConfigError):
            RunConfig.load(write_config(tmp_path, cfg))

    # a dotted key names a value inside a section
    @pytest.mark.parametrize("key, value", [
        ("check.n_seeds", 0),
        ("check.T", "abc"),
        ("check.mds", "gauss"),
        ("check.fault_injection", {"x": 1}),
        ("write_traces", "false"),
        ("diagnostics", "no"),
        ("n_seeds", 2.9),
        ("n_seeds", True),
        ("T_grid", [10.7, 20, 40]),
        ("T_grid", 100),
        ("delta", None),
        ("delta", True),
        ("optimizers", 5),
        ("problem.params", [1, 2]),
        ("output_dir", None),
        ("output_dir", ["a"]),
        ("output_dir", ""),
    ], ids=["zero_seeds", "non_integer_T", "unknown_mds", "unknown_fault_key",
            "string_write_traces", "string_diagnostics", "float_n_seeds",
            "bool_n_seeds", "float_in_T_grid", "scalar_T_grid", "null_delta",
            "bool_delta", "scalar_optimizers", "list_params", "null_output_dir",
            "list_output_dir", "empty_output_dir"])
    @pytest.mark.parametrize("command", ["run", "check"])
    def test_bad_value_is_one_config_error_line(self, tmp_path, capsys, monkeypatch,
                                                command, key, value):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} started work on an invalid config")

        for name in ("verify_assumptions", "run_cell", "run_experiment"):
            monkeypatch.setattr(f"signstorm.cli.{name}", no_work)
        cfg = base_config(tmp_path / "out")
        section, _, leaf = key.rpartition(".")
        (cfg[section] if section else cfg)[leaf] = value
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match=key):
            RunConfig.load(path)
        assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert key in err
        assert not (tmp_path / "out").exists()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["run", str(path)]) == EXIT_CONFIG


class TestCmdRun:
    def test_minimal_run_produces_artifacts(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["run", path]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert len(report["cells"]) == 1
        assert report["cells"][0]["optimizer"] == "signstorm"
        assert (out / "convergence_bands.svg").exists()
        assert (out / "rate_fit.svg").exists()
        traces = list((out / "traces").glob("*.csv"))
        assert len(traces) == 2  # one per seed

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["run", path]) == EXIT_OK
        first = (out / "report.json").read_bytes()
        assert main(["run", path]) == EXIT_OK
        assert (out / "report.json").read_bytes() == first

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bad_problem_param_is_config_error(self, tmp_path, capsys, monkeypatch,
                                               workers):
        # the problem is first built inside the experiment's cell tasks
        monkeypatch.setenv("SIGNSTORM_THREADS", workers)
        cfg = base_config(tmp_path / "out")
        cfg["problem"]["params"]["x_init"] = [1.0, 2.0]
        cfg["T_grid"] = [20, 40]
        path = write_config(tmp_path, cfg)
        assert main(["run", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_eps_guard_rejected_by_run(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["eps_guard"] = 1e-8
        path = write_config(tmp_path, cfg)
        assert main(["run", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "eps_guard" in err and "check" in err
        assert not (tmp_path / "out").exists()

    def test_non_integer_thread_count_is_config_error(self, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setenv("SIGNSTORM_THREADS", "abc")
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["run", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "SIGNSTORM_THREADS" in err and "'abc'" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_thread_count_below_one_is_config_error(self, tmp_path, capsys,
                                                    monkeypatch, value):
        monkeypatch.setenv("SIGNSTORM_THREADS", value)
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["run", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "SIGNSTORM_THREADS" in err and repr(value) in err


class TestCmdCheck:
    def test_default_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["check", path]) == EXIT_OK
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        by_name = {v["checker"]: v for v in verdicts}
        for name in ("assumption_unbiasedness", "assumption_noise_bound",
                     "assumption_smoothness", "movement_bound", "representation",
                     "storm_decomposition", "estimator_ratio"):
            assert by_name[name]["status"] == "pass", name
        assert (out / "check.json").exists()

    def test_eps_guard_skips_movement_not_fails(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["eps_guard"] = 1e-8
        path = write_config(tmp_path, cfg)
        assert main(["check", path]) == EXIT_OK
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        by_name = {v["checker"]: v for v in verdicts}
        assert by_name["movement_bound"]["status"] == "skipped"

    def test_mutated_L_fails_with_nonzero_exit(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["check"]["fault_injection"] = {"L_scale": 0.5}
        cfg["check"]["n_probes"] = 4000
        path = write_config(tmp_path, cfg)
        assert main(["check", path]) == EXIT_CHECK
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        by_name = {v["checker"]: v for v in verdicts}
        assert by_name["assumption_smoothness"]["status"] == "fail"

    def test_lemma_checks_independent_of_experiment_optimizers(self, tmp_path, capsys):
        # the diagnosed runs use the variance-reduced method even when the
        # experiment compares something else
        cfg = base_config(tmp_path / "out")
        cfg["optimizers"] = ["adam"]
        path = write_config(tmp_path, cfg)
        assert main(["check", path]) == EXIT_OK
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        by_name = {v["checker"]: v for v in verdicts}
        assert by_name["representation"]["status"] == "pass"
        assert by_name["storm_decomposition"]["status"] == "pass"


# x_init near the largest double and a sign step of about 6.7e307: a step
# up overflows x.  Noise beyond 1.34e154 overflows v = m^2 first.  So the
# diagnosed seeds of `check` abort at step 1 with one of two messages, or
# finish, depending on their draws.
OVERFLOW_PROBLEM = {"name": "noisy_quadratic",
                    "params": {"d": 1, "hessian_diag": 1e-300, "sigma": 2e154,
                               "x_init": 1.5e308}}


def overflow_config(out_dir, master_seed, n_seeds):
    cfg = base_config(out_dir)
    cfg.update(problem=OVERFLOW_PROBLEM, param_mode="practical", alpha=1.7e308,
               T_grid=[4], master_seed=master_seed,
               check={"T": 4, "n_seeds": n_seeds, "n_probes": 50,
                      "lemma1_trials": 100})
    return cfg


def diagnosed_abort_reasons(master_seed, n_seeds):
    """Per seed `check` diagnoses, alone: its NonFiniteValue message, or None."""
    problem = make_problem(OVERFLOW_PROBLEM["name"], OVERFLOW_PROBLEM["params"])
    hp = practical_params(1.7e308, 1.0, 4).hp
    reasons = []
    for s in range(n_seeds):
        try:
            run_with_diagnostics(problem, hp, 4, derive_seed(master_seed, 202, s))
            reasons.append(None)
        except NonFiniteValue as exc:
            reasons.append(str(exc))
    return reasons


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestCheckAbort:
    def test_nonfinite_run_exits_1_with_one_error_line(self, tmp_path, capsys):
        assert diagnosed_abort_reasons(1, 1)[0] is not None
        out = tmp_path / "out"
        path = write_config(tmp_path, overflow_config(out, master_seed=1, n_seeds=1))
        assert main(["check", path]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and "NaN/Inf" in lines[0]
        assert not (out / "check.json").exists()

    def test_error_names_the_lowest_index_aborted_seed(self, tmp_path, capsys):
        reasons = diagnosed_abort_reasons(5, 6)
        aborted = [r for r in reasons if r is not None]
        # seed 0 finishes and the aborted seeds disagree, so only the
        # lowest-index rule gives this message
        assert reasons[0] is None and len(set(aborted)) > 1
        path = write_config(tmp_path, overflow_config(tmp_path / "out", 5, 6))
        assert main(["check", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {aborted[0]}\n"


class TestCmdReport:
    def synthetic_report(self, tmp_path, cells, fits):
        doc = {"config": {}, "master_seed": 0, "cells": cells,
               "rate_fits": fits, "violations": {}}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_bands_chart_has_series_and_legend(self, tmp_path):
        cells = []
        for opt in ("signstorm", "adam"):
            for T in (100, 1000, 10_000):
                metric = (2.0 if opt == "adam" else 1.0) * T ** -0.5
                cells.append({"optimizer": opt, "T": T, "n_fail": 0,
                              "quantiles": {"0.5": metric, "0.9": 1.5 * metric,
                                            "1-delta": 2 * metric}})
        path = self.synthetic_report(tmp_path, cells, {})
        out = tmp_path / "bands.svg"
        assert main(["report", path, "--chart", "convergence_bands",
                     "--out", str(out)]) == EXIT_OK
        svg = out.read_text()
        assert svg.count("<polygon") == 2  # one band per optimizer
        assert svg.count("<polyline") == 2
        assert "signstorm" in svg and "adam" in svg

    def test_rate_chart_annotates_exact_slope(self, tmp_path):
        import math
        cells = [{"optimizer": "signstorm", "T": T, "n_fail": 0,
                  "quantiles": {"0.5": T ** (-1 / 3), "0.9": T ** (-1 / 3),
                                "1-delta": T ** (-1 / 3)}}
                 for T in (100, 1000, 10_000)]
        fits = {"signstorm": {"slope": -1 / 3,
                              "intercept": 0.0, "r2": 1.0, "n_points": 3}}
        path = self.synthetic_report(tmp_path, cells, fits)
        out = tmp_path / "rate.svg"
        assert main(["report", path, "--chart", "rate_fit",
                     "--out", str(out)]) == EXIT_OK
        assert "slope -0.333" in out.read_text()

    def test_empty_cells_yield_no_data_annotation(self, tmp_path):
        cells = [{"optimizer": "signstorm", "T": 100, "n_fail": 2,
                  "quantiles": {"0.5": None, "0.9": None, "1-delta": None}}]
        path = self.synthetic_report(tmp_path, cells, {})
        out = tmp_path / "empty.svg"
        assert main(["report", path, "--chart", "convergence_bands",
                     "--out", str(out)]) == EXIT_OK
        assert "no data" in out.read_text()

    def test_malformed_report_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"cells": "nope"}))
        assert main(["report", str(path)]) == EXIT_CONFIG


class TestCmdParams:
    def test_reference_constants(self, capsys):
        assert main(["params", "--delta", "1", "--L1", "1", "--sigma1", "1",
                     "--T", "1000", "--beta2", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "beta1    = 0.99" in out
        assert "eta      = 0.01" in out
        assert "c(rho)   = 0.5" in out
        assert "bound reference" in out

    def test_rho_violation_reported(self, capsys):
        assert main(["params", "--delta", "1", "--L1", "1", "--sigma1", "0",
                     "--T", "1000", "--beta2", "0.5"]) == EXIT_CONFIG
