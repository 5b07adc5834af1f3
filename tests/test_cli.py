import functools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
import weakref
from pathlib import Path

import pytest

from signstorm import (
    NonFiniteValue,
    cli,
    derive_seed,
    harness,
    make_problem,
    practical_params,
    run_with_diagnostics,
)
from signstorm.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_IO, EXIT_OK, RunConfig, main
from signstorm.errors import ConfigError, MalformedReport


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


@functools.cache
def benchmark_workloads() -> dict:
    """``WORKLOADS`` of perfbench/workloads.py, executed from its source so
    that no bytecode is written beside it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    module = sys.modules.setdefault("perfbench_workloads",
                                    types.ModuleType("perfbench_workloads"))
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module.WORKLOADS


# keys whose range the practical schedule checks; their cases run in practical mode
PRACTICAL_KEYS = {"alpha", "beta2"}
# parameters only synthetic_logistic takes; their cases run on it
LOGISTIC_KEYS = {"problem.params.data_seed", "problem.params.feature_bound"}
# and the x_init of the length case that runs on it
LOGISTIC_X_INIT = [0.5, 0.5]
# and the one only bounded_nonconvex takes
BOUNDED_KEYS = {"problem.params.a"}


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
        ("check.T", 2**63),
        ("check.lemma1_T", 2**63),
        ("check.mds", "gauss"),
        ("check.fault_injection", {"x": 1}),
        ("write_traces", "false"),
        ("diagnostics", "no"),
        ("n_seeds", 2.9),
        ("n_seeds", True),
        ("T_grid", [10.7, 20, 40]),
        ("T_grid", 100),
        ("T_grid", [60, 2**63]),
        ("delta", None),
        ("delta", True),
        ("optimizers", 5),
        ("problem.params", [1, 2]),
        ("output_dir", None),
        ("output_dir", ["a"]),
        ("output_dir", ""),
        ("alpha", math.inf),
        ("alpha", 5e-324),
        ("beta2", -0.5),
        ("problem.params.d", "x"),
        ("problem.params.d", 2.5),
        ("problem.params.d", True),
        ("problem.params.d", -2),
        ("problem.params.d", 0),
        ("problem.params.data_seed", -1),
        ("problem.params.feature_bound", math.inf),
        ("problem.params.hessian_diag", "abc"),
        ("problem.params.hessian_diag", math.inf),
        ("problem.params.hessian_diag", 0.0),
        ("problem.params.a", [1.0, -1.0, 1.0]),
        ("problem.params.sigma", None),
        ("problem.params.sigma", math.inf),
        ("problem.params.sigma", -0.25),
        ("problem.params.x_init", [1.0, math.nan, 1.0]),
        ("problem.params.sigma", 1e308),
        ("problem.params.feature_bound", 1e308),
        ("problem.params.hessian_diag", 10**400),
        ("eps_guard", -1.0),
        ("eps_guard", math.inf),
        ("problem.params.hessian_diag", [1.0, 2.0]),
        ("problem.params.a", [1.0, 2.0, 3.0, 4.0]),
        ("problem.params.sigma", [1.0, 2.0]),
        ("problem.params.x_init", [1.0]),
        ("problem.params.x_init", LOGISTIC_X_INIT),
    ], ids=["zero_seeds", "non_integer_T", "int64_overflowing_T", "int64_overflowing_lemma1_T",
            "unknown_mds", "unknown_fault_key", "string_write_traces", "string_diagnostics",
            "float_n_seeds", "bool_n_seeds", "float_in_T_grid", "scalar_T_grid",
            "int64_overflowing_T_grid", "null_delta",
            "bool_delta", "scalar_optimizers", "list_params", "null_output_dir",
            "list_output_dir", "empty_output_dir", "practical_infinite_alpha",
            "practical_underflowing_alpha", "practical_negative_beta2", "string_d",
            "float_d", "bool_d", "negative_d", "zero_d", "negative_data_seed",
            "infinite_feature_bound", "string_hessian_diag", "infinite_hessian_diag",
            "zero_hessian_diag", "negative_a_entry", "null_sigma", "infinite_sigma",
            "negative_sigma", "nan_x_init_entry", "overflowing_sigma_range",
            "overflowing_feature_range", "huge_int_hessian_diag", "negative_eps_guard",
            "infinite_eps_guard", "short_hessian_diag", "long_a", "short_sigma",
            "short_x_init", "short_logistic_x_init"])
    @pytest.mark.parametrize("command", ["run", "check"])
    def test_bad_value_is_one_config_error_line(self, tmp_path, capsys, monkeypatch,
                                                command, key, value):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} started work on an invalid config")

        for name in ("cli.verify_assumptions", "diagnostics.check_in_blocks",
                     "cli.run_experiment"):
            monkeypatch.setattr(f"signstorm.{name}", no_work)
        cfg = base_config(tmp_path / "out")
        if key in PRACTICAL_KEYS:
            cfg["param_mode"] = "practical"
        if key in LOGISTIC_KEYS or value is LOGISTIC_X_INIT:
            cfg["problem"] = {"name": "synthetic_logistic", "params": {"d": 3}}
        if key in BOUNDED_KEYS:
            cfg["problem"] = {"name": "bounded_nonconvex", "params": {"d": 3}}
        *sections, leaf = key.split(".")
        functools.reduce(dict.__getitem__, sections, cfg)[leaf] = value
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match=key):
            RunConfig.load(path)
        assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert key in err
        if key.startswith("problem.params.") and isinstance(value, list) and len(value) != 3:
            assert f"has length {len(value)}, but problem.params.d = 3" in err
        assert not (tmp_path / "out").exists()

    # a report keys its cells, rate fits and trace files by optimizer name:
    # a second copy would pool into the first's fit and overwrite its traces
    @pytest.mark.parametrize("command", ["run", "check"])
    def test_repeated_optimizer_is_config_error(self, tmp_path, capsys, command):
        cfg = base_config(tmp_path / "out")
        cfg["optimizers"] = ["signstorm", "sgd", "signstorm"]
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match="optimizers lists 'signstorm' more than once"):
            RunConfig.load(path)
        assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "'signstorm'" in err
        assert not (tmp_path / "out").exists()

    # seeds are derived from the master seed's 64 bits, so 2**64 would run
    # the cells of seed 0 and -1 those of 2**64 - 1
    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command", ["run", "check"])
    def test_master_seed_outside_64_bits_is_config_error(self, tmp_path, capsys, command,
                                                         seed):
        cfg = base_config(tmp_path / "out")
        cfg["master_seed"] = seed
        path = write_config(tmp_path, cfg)
        assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "master_seed" in err and repr(seed) in err
        assert not (tmp_path / "out").exists()

    # theorem mode takes its schedule from the problem's constants, so the
    # practical schedule's keys would be ignored
    @pytest.mark.parametrize("key, value", [("alpha", -1.0), ("alpha", 1.0), ("beta", 0.5),
                                            ("per_step", False)])
    @pytest.mark.parametrize("command", ["run", "check"])
    def test_practical_key_in_theorem_mode_is_config_error(self, tmp_path, capsys,
                                                           command, key, value):
        cfg = base_config(tmp_path / "out")
        cfg[key] = value
        assert main([command, write_config(tmp_path, cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert key in err and '"param_mode": "practical"' in err
        assert not (tmp_path / "out").exists()
        if value != -1.0:  # a valid value of the practical schedule
            cfg["param_mode"] = "practical"
            assert RunConfig.load(write_config(tmp_path, cfg)).spec.param_mode == "practical"

    # a trace column with no traces to hold it
    @pytest.mark.parametrize("command", ["run", "check"])
    def test_diagnostics_without_traces_is_config_error(self, tmp_path, capsys, command):
        cfg = base_config(tmp_path / "out")
        cfg.update(diagnostics=True, write_traces=False)
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match="diagnostics"):
            RunConfig.load(path)
        assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert '"diagnostics": true' in err and '"write_traces": false' in err
        assert not (tmp_path / "out").exists()
        # either key alone is valid
        for diagnostics, traces in [(True, True), (False, False)]:
            cfg.update(diagnostics=diagnostics, write_traces=traces)
            config = RunConfig.load(write_config(tmp_path, cfg))
            assert (config.spec.collect_diagnostics, config.write_traces) == (diagnostics, traces)

    # values that pass load but that the run cannot use: sizes whose arrays
    # cannot be allocated and problem scales whose smoothness constants
    # overflow.  The error comes when the run reaches them, one line naming
    # the key, with no warning.
    @pytest.mark.parametrize("command, patch, key", [
        *(pytest.param(command, {"problem": problem}, key, id=f"{command}-{name}")
          for command in ("run", "check")
          for name, problem, key in [
              ("memory_d", {"name": "noisy_quadratic", "params": {"d": 10**12}},
               "problem.params.d"),
              ("too_big_d", {"name": "noisy_quadratic", "params": {"d": 2**62}},
               "problem.params.d"),
              ("memory_n_samples",
               {"name": "synthetic_logistic", "params": {"d": 3, "n_samples": 10**12}},
               "problem.params.n_samples"),
              ("beyond_max_dimension_d", {"name": "noisy_quadratic", "params": {"d": 2**63}},
               "problem.params.d"),
              ("overflowing_a", {"name": "bounded_nonconvex", "params": {"d": 3, "a": 1e308}},
               "problem.params.a"),
              ("overflowing_feature_bound",
               {"name": "synthetic_logistic", "params": {"d": 3, "feature_bound": 1e200}},
               "problem.params.feature_bound"),
          ]),
        pytest.param("check", {"check.T": 10**12}, "check.T", id="check-memory_T"),
        pytest.param("check", {"check.lemma1_T": 10**12}, "check.lemma1_T",
                     id="check-memory_lemma1_T"),
        pytest.param("check", {"check.n_probes": 10**12}, "check.n_probes",
                     id="check-memory_n_probes"),
        pytest.param("run", {"T_grid": [10**12]}, "T_grid", id="run-memory_traced_T_grid"),
    ])
    @pytest.mark.usefixtures("bounded_address_space")
    def test_unallocatable_size_is_one_config_error_line(self, tmp_path, capsys, monkeypatch,
                                                         command, patch, key):
        # one worker, so that the tasks raise and warn in this process
        monkeypatch.setenv("SIGNSTORM_THREADS", "1")
        cfg = base_config(tmp_path / "out")
        for path, value in patch.items():
            *sections, leaf = path.split(".")
            functools.reduce(dict.__getitem__, sections, cfg)[leaf] = value
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert key in err and "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "out").exists()

    @pytest.mark.usefixtures("bounded_address_space")
    def test_unallocatable_lemma1_T_fails_before_other_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("check started work before sizing the lemma 1 paths")

        for name in ("harness.ExperimentSpec.build_problem", "cli.verify_assumptions",
                     "diagnostics.check_in_blocks"):
            monkeypatch.setattr(f"signstorm.{name}", no_work)
        cfg = base_config(tmp_path / "out")
        cfg["check"]["lemma1_T"] = 10**12
        assert main(["check", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "check.lemma1_T" in err
        assert not (tmp_path / "out").exists()

    def test_lemma1_step_budget_fails_at_load(self, tmp_path, capsys):
        # 10**15 simulated steps would run for over a century
        cfg = base_config(tmp_path / "out")
        cfg["check"]["lemma1_trials"] = 10**15
        start = time.perf_counter()
        assert main(["check", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "check.lemma1_trials" in err and "check.lemma1_T" in err
        assert not (tmp_path / "out").exists()
        # the budget is 10**10 steps, inclusive
        cfg["check"].update(lemma1_trials=10**7, lemma1_T=1000)
        assert RunConfig.load(write_config(tmp_path, cfg)).check["lemma1_T"] == 1000
        cfg["check"]["lemma1_T"] = 1001
        with pytest.raises(ConfigError, match="check.lemma1_trials"):
            RunConfig.load(write_config(tmp_path, cfg))

    # seed counts whose per-seed rows cannot be allocated fail at load,
    # before any worker starts or any per-seed list is built
    @pytest.mark.parametrize("n_seeds", [2**62, 2**63])
    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.usefixtures("bounded_address_space")
    def test_unallocatable_n_seeds_fails_at_load(self, tmp_path, capsys, monkeypatch,
                                                 command, n_seeds):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} started work on n_seeds = {n_seeds}")

        for name in ("cli.run_experiment", "diagnostics.check_in_blocks",
                     "cli.verify_assumptions", "diagnostics.lemma1_montecarlo"):
            monkeypatch.setattr(f"signstorm.{name}", no_work)
        cfg = base_config(tmp_path / "out")
        cfg["n_seeds"] = n_seeds
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match="n_seeds"):
            RunConfig.load(path)
        assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "n_seeds" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["run", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"output_dir": "\xff"}')
        assert main([command, str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_zero_gap_names_what_the_config_can_change(self, tmp_path, capsys, command):
        # x_init at the quadratic's minimizer makes delta_upper zero, where
        # the theorem-mode formulas degenerate
        cfg = base_config(tmp_path / "out")
        cfg["problem"]["params"]["x_init"] = 0.0
        assert main([command, write_config(tmp_path, cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "problem.params.x_init" in err and '"param_mode": "practical"' in err
        assert "delta_floor" not in err
        assert not (tmp_path / "out").exists()
        cfg["param_mode"] = "practical"
        assert main([command, write_config(tmp_path, cfg)]) == EXIT_OK


@pytest.mark.parametrize("command", ["run", "check"])
def test_unwritable_output_is_one_io_error_line(tmp_path, capsys, command):
    blocker = tmp_path / "out"
    blocker.write_text("a file where the output directory should be")
    assert main([command, write_config(tmp_path, base_config(blocker))]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_import_leaves_out_the_process_pool():
    # only a run that starts a pool imports it; every other command skips
    # multiprocessing and its imports
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, signstorm.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "False\n"


@pytest.mark.parametrize("name", sorted(benchmark_workloads()))
def test_benchmark_setup_probe_loads_each_workload(name, tmp_path):
    # the call the benchmark times as its set-up, on the config it generates
    cfg = benchmark_workloads()[name].config(0, str(tmp_path / "out"))
    problem = RunConfig.load(write_config(tmp_path, cfg)).to_spec().build_problem()
    assert problem.d == cfg["problem"]["params"]["d"]


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
        # the problem is first built inside the experiment's cell tasks,
        # where a parameter the problem does not take is found
        monkeypatch.setenv("SIGNSTORM_THREADS", workers)
        cfg = base_config(tmp_path / "out")
        cfg["problem"]["params"]["a"] = 1.0
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
        # the guard skips every check stated for eps_guard = 0, in suite order
        assert [(v["checker"], v["status"]) for v in verdicts][3:] == [
            ("movement_bound", "skipped"), ("representation", "pass"),
            ("storm_decomposition", "pass"), ("estimator_ratio", "skipped"),
            ("epsilon_bound", "skipped"), ("sign_dichotomy", "skipped"),
            ("lemma1_montecarlo", "pass")]

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

    @pytest.mark.parametrize("n_seeds", [4, 40])
    def test_check_holds_one_chunk_at_a_time(self, tmp_path, monkeypatch, n_seeds):
        # a presample budget of four seeds' rows steps the seeds in chunks
        # of 4: each chunk's record is freed before the next one is made
        T, d = 400, 8
        cfg = base_config(tmp_path / "out")
        cfg["problem"]["params"]["d"] = d
        cfg["check"] = {"T": T, "n_seeds": n_seeds, "n_probes": 10,
                        "lemma1_trials": 100, "lemma1_T": 10}
        config = RunConfig.load(write_config(tmp_path, cfg))
        monkeypatch.setattr(harness, "_PRESAMPLE_VALUES", 4 * d * harness._MIN_PRESAMPLE_ROWS)
        made, alive = [], []

        class WatchedRun(cli.diag.CheckedRun):
            def __init__(self, *args, **kwargs):
                alive.append(sum(ref() is not None for ref in made))
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(cli.diag, "CheckedRun", WatchedRun)
        verdicts = cli._check_verdicts(config)
        assert [v["n_total"] for v in verdicts if v["checker"] == "epsilon_bound"] == [
            n_seeds * T * d]
        assert alive == [0] * (n_seeds // 4)

    def test_check_peak_does_not_grow_with_T(self, tmp_path, monkeypatch):
        # 8 seeds in chunks of 4, checked in blocks of 10 steps, with the
        # representation checked on the first R = 50: past R, a horizon 4
        # times longer adds nothing to the peak, where a record of every
        # step would add 5 d + 1 values a seed and step
        d, R = 8, 50
        monkeypatch.setattr(harness, "_PRESAMPLE_VALUES", 4 * d * harness._MIN_PRESAMPLE_ROWS)
        monkeypatch.setattr(cli.diag, "REPRESENTATION_STEPS", R)
        monkeypatch.setattr(cli.diag, "_BLOCK_VALUES", 10 * 4 * d)
        monkeypatch.setattr(cli.diag, "_BLOCK_STEPS", 1)
        peaks = []
        for T in (4 * R, 16 * R, 4 * R):
            cfg = base_config(tmp_path / "out")
            cfg["problem"]["params"]["d"] = d
            cfg["check"] = {"T": T, "n_seeds": 8, "n_probes": 10, "lemma1_trials": 100,
                            "lemma1_T": 10}
            config = RunConfig.load(write_config(tmp_path, cfg))
            # once untraced, so that the modules a first call imports are not counted
            cli._check_verdicts(config)
            tracemalloc.start()
            try:
                verdicts = cli._check_verdicts(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            by_name = {v["checker"]: v for v in verdicts}
            assert by_name["epsilon_bound"]["n_total"] == 8 * T * d
            # the representation entry names the steps it checked
            assert by_name["representation"]["steps_checked"] == R
            assert by_name["representation"]["status"] == "pass"
        grown = 12 * R * 4 * (5 * d + 1) * 8
        assert peaks[1] - min(peaks[0], peaks[2]) < grown / 20

    def test_representation_entry_names_its_steps_only_past_R(self, tmp_path, monkeypatch,
                                                              capsys):
        monkeypatch.setattr(cli.diag, "REPRESENTATION_STEPS", 80)
        for T, steps in [(80, None), (81, 80)]:
            cfg = base_config(tmp_path / "out")
            cfg["check"]["T"] = T
            assert main(["check", write_config(tmp_path, cfg)]) == EXIT_OK
            [entry] = [v for v in json.loads(capsys.readouterr().out)["verdicts"]
                       if v["checker"] == "representation"]
            assert entry.get("steps_checked") == steps

    def test_diagnosed_step_budget_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        # the diagnosed runs' memory no longer grows with T: their length
        # is bounded by cli._DIAGNOSED_STEPS seed-steps, inclusive
        def no_work(*args, **kwargs):
            raise AssertionError("check started work past the diagnosed step budget")

        for name in ("cli.verify_assumptions", "diagnostics.check_in_blocks",
                     "diagnostics.lemma1_montecarlo"):
            monkeypatch.setattr(f"signstorm.{name}", no_work)
        cfg = base_config(tmp_path / "out")
        cfg["check"].update(T=cli._DIAGNOSED_STEPS // 4 + 1, n_seeds=4)
        assert main(["check", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "check.T * check.n_seeds" in err
        assert not (tmp_path / "out").exists()
        cfg["check"]["T"] = cli._DIAGNOSED_STEPS // 4
        with pytest.raises(AssertionError, match="past the diagnosed step budget"):
            main(["check", write_config(tmp_path, cfg)])

    @pytest.mark.parametrize("steps", [1, 7, 80])
    def test_check_json_is_the_same_for_any_chunk_size(self, tmp_path, monkeypatch, steps):
        # 15 diagnosed seeds in chunks of 1, of 7 and all in one, checked in
        # blocks of `steps` steps (80: the whole horizon), each block
        # against its rows of the envelope
        cfg = base_config(tmp_path / "out")
        cfg["check"]["n_seeds"] = 15
        path = write_config(tmp_path, cfg)
        d, T = cfg["problem"]["params"]["d"], cfg["check"]["T"]
        chunks, built, outputs = [], [], []
        chunk_body, envelope = harness._run_chunk, cli.diag.epsilon_envelope

        def counted_chunk(problem, kind, hps, seeds, recorder, empty):
            chunks[-1].append((len(seeds), recorder.m.shape[1] - 1))
            return chunk_body(problem, kind, hps, seeds, recorder, empty)

        def counted_envelope(hp, L_vec, sigma_vec, end, delta, start):
            built[-1].extend(range(start, end + 1))
            return envelope(hp, L_vec, sigma_vec, end, delta, start)

        monkeypatch.setattr(harness, "_run_chunk", counted_chunk)
        monkeypatch.setattr(cli.diag, "epsilon_envelope", counted_envelope)
        default = harness._PRESAMPLE_VALUES
        for per_chunk in (1, 7, 15):
            monkeypatch.setattr(harness, "_PRESAMPLE_VALUES", default if per_chunk == 15
                                else per_chunk * d * harness._MIN_PRESAMPLE_ROWS)
            # `steps` steps for a chunk of per_chunk seeds
            monkeypatch.setattr(cli.diag, "_BLOCK_VALUES", steps * per_chunk * d)
            monkeypatch.setattr(cli.diag, "_BLOCK_STEPS", 1)
            chunks.append([])
            built.append([])
            assert main(["check", path]) == EXIT_OK
            outputs.append((tmp_path / "out" / "check.json").read_bytes())
        # the last chunk of 1 takes the blocks of 7 seeds' budget
        assert chunks == [[(1, steps)] * 15, [(7, steps), (7, steps), (1, min(7 * steps, T))],
                          [(15, steps)]]
        assert outputs == outputs[:1] * 3
        # each chunk's blocks take every envelope row once, in t order
        assert built == [list(range(1, T + 1)) * len(c) for c in chunks]


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
    hp = practical_params(1.7e308, 1.0, 4)
    reasons = []
    for s in range(n_seeds):
        try:
            list(run_with_diagnostics(problem, hp, 4, [derive_seed(master_seed, 202, s)]))
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
    CELL = {"optimizer": "signstorm", "T": 100, "n_fail": 0,
            "quantiles": {"0.5": 0.1, "0.9": 0.2, "1-delta": 0.3}}

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

    @pytest.mark.parametrize("chart, cells, fits", [
        *[pytest.param(chart, cells, {}, id=f"{name}-{chart}")
          for name, cells in [
              ("cells_not_a_list", "nope"),
              ("null_quantiles", [{**CELL, "quantiles": None}]),
              ("zero_T", [{**CELL, "T": 0}]),
              ("string_T", [{**CELL, "T": "a"}]),
              ("string_quantile", [{**CELL, "quantiles": {**CELL["quantiles"], "0.5": "0.1"}}]),
          ] for chart in ("convergence_bands", "rate_fit")],
        pytest.param("rate_fit", [CELL], {"signstorm": {"slope": -0.3, "r2": 1.0, "n_points": 3}},
                     id="fit_without_intercept-rate_fit"),
        # finite fits whose line leaves the float range: exp overflows, or
        # underflows to 0, which a log axis cannot place
        pytest.param("rate_fit", [CELL], {"signstorm": {"slope": -0.3, "intercept": 1000.0,
                                                        "r2": 1.0, "n_points": 3}},
                     id="fit_overflowing_intercept-rate_fit"),
        pytest.param("rate_fit", [CELL], {"signstorm": {"slope": -0.3, "intercept": -1000.0,
                                                        "r2": 1.0, "n_points": 3}},
                     id="fit_underflowing_intercept-rate_fit"),
        pytest.param("rate_fit", [CELL], {"signstorm": {"slope": 1e308, "intercept": 0.0,
                                                        "r2": 1.0, "n_points": 3}},
                     id="fit_slope_1e308-rate_fit"),
    ])
    def test_malformed_report_is_config_error(self, tmp_path, capsys, chart, cells, fits):
        path = self.synthetic_report(tmp_path, cells, fits)
        out = tmp_path / "chart.svg"
        assert main(["report", path, "--chart", chart, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("content", [b'{"cells": [', b'{"cells": "\xff"}'],
                             ids=["not_json", "not_utf8"])
    def test_undecodable_report_is_malformed(self, tmp_path, capsys, content):
        path = tmp_path / "report.json"
        path.write_bytes(content)
        with pytest.raises(MalformedReport, match="^malformed report: "):
            cli.cmd_report(str(path), "rate_fit", None)
        out = tmp_path / "chart.svg"
        assert main(["report", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: malformed report: ") and err.count("\n") == 1
        assert not out.exists()

    def test_unreadable_or_unwritable_is_io_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing.json")]) == EXIT_IO
        path = self.synthetic_report(tmp_path, [], {})
        assert main(["report", path, "--out", str(tmp_path / "no" / "c.svg")]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error:") for line in err)


def test_every_written_file_has_lf_line_endings(tmp_path, monkeypatch):
    # newline="\n" keeps the pinned reports, traces and charts byte-stable
    # on platforms whose text mode would write CRLF.  Every file goes
    # through harness.write_text; one worker writes the traces in this
    # process, where the patched open sees them
    opened = []

    def recording_open(file, mode="r", *args, **kwargs):
        opened.append((Path(file).name, mode, kwargs.get("newline"), kwargs.get("encoding")))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(harness, "open", recording_open, raising=False)
    monkeypatch.setenv("SIGNSTORM_THREADS", "1")
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, base_config(out))]) == EXIT_OK
    assert main(["report", str(out / "report.json"), "--chart", "rate_fit"]) == EXIT_OK
    assert main(["check", write_config(tmp_path, base_config(out))]) == EXIT_OK
    written = [(name, newline, encoding) for name, mode, newline, encoding in opened
               if "w" in mode]
    assert sorted(written) == sorted((name, "\n", "utf-8") for name in [
        "signstorm_T60_s0.csv", "signstorm_T60_s1.csv", "report.json",
        "convergence_bands.svg", "rate_fit.svg", "rate_fit.svg", "check.json"])


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
