"""Golden reports: pinned SHA-256 digests of small experiments' report.json.

The digests in ``golden/report_sha256.json`` were computed by the
per-trial engine that preceded the seed-batched one.  Any change to how a
report is produced must reproduce them byte for byte, at every worker
count.  Between them the specs cover every bundled problem, all seven
optimizer kinds, a cell where some seeds abort on a non-finite value,
beta1 = 0 (noiseless theorem mode, and T = 1 in practical mode), sigma = 0
in practical mode, and d = 1.  ``golden/check_sha256.json`` pins the
``check.json`` of one ``signstorm check`` run in the same way; it was
computed before ``lemma1_montecarlo`` transformed its chunks in place, and
before ``representation_check`` and ``verify_assumptions`` lost their
per-t and per-probe loops.  Its second digest, ``check_d1``, pins a
d = 1 run.  It was computed after those loops went, by the one-pass
representation check, whose d = 1 sums run sequentially where the per-t
loop's ran pairwise; on this config the per-t loop wrote the same bytes.
It was re-pinned when the assumption verifier gained its relative slack:
only the smoothness verdict moved, from fail to pass.
Both check digests also hold when ``run_cell`` steps the diagnosed seeds
in several chunks.  ``golden/trace_sha256.json`` pins every trace CSV
that ``signstorm run`` writes for three of the specs: one with the
``eps_l1`` column, one whose traces stop early at an abort, and one at
d = 1.  Those digests were
computed while the traces still came from a serial per-trial re-run.
``golden/diagnostics_sha256.json`` pins every array of the ``DiagnosticRun``
of each seed of a few diagnosed runs, among them the seeds ``signstorm
check`` diagnoses on the ``check_suite`` benchmark config.  Those digests
were computed while ``run_with_diagnostics`` still had its own per-seed
loop; both the single-seed call and one seed-batched ``run_cell`` call
must reproduce them.  ``golden/chart_sha256.json`` pins the two SVG charts
that ``signstorm run`` writes for every spec, and
``golden/params_stdout.json`` the stdout of ``signstorm params`` for a
few inputs; both were recorded while the parameter formulas still
returned a wrapper that carried its own copy of rho.

    PYTHONPATH=src python tests/test_golden.py    # print the current digests
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from signstorm import (
    DiagnosticRecorder,
    ExperimentSpec,
    HyperParams,
    OptimizerKind as K,
    Schedule,
    derive_seed,
    make_problem,
    run_cell,
    run_experiment,
    run_with_diagnostics,
)
from signstorm import harness
from signstorm.cli import RunConfig, main
from signstorm.harness import resolve_hyperparams

GOLDEN = Path(__file__).resolve().parent / "golden" / "report_sha256.json"
CHECK_GOLDEN = Path(__file__).resolve().parent / "golden" / "check_sha256.json"
TRACE_GOLDEN = Path(__file__).resolve().parent / "golden" / "trace_sha256.json"
DIAG_GOLDEN = Path(__file__).resolve().parent / "golden" / "diagnostics_sha256.json"
CHART_GOLDEN = Path(__file__).resolve().parent / "golden" / "chart_sha256.json"
PARAMS_GOLDEN = Path(__file__).resolve().parent / "golden" / "params_stdout.json"

SPECS = {
    "quadratic_theorem": dict(
        problem_name="noisy_quadratic",
        problem_params={"d": 20, "hessian_diag": 1.0, "sigma": 0.3,
                        "x_init": [0.5 + j / 19 for j in range(20)]},
        optimizers=[K.SIGNSTORM, K.GENERALIZED_SIGN_SGD, K.SGD],
        T_grid=[50, 100, 200], n_seeds=4, delta=0.1, beta2=0.1, master_seed=11),
    "nonconvex_practical": dict(
        problem_name="bounded_nonconvex",
        problem_params={"d": 3, "a": 1.0, "sigma": 0.4, "x_init": [0.5, 1.0, 2.0]},
        optimizers=[K.STORM, K.MOMENTUM_SGD, K.ADAM, K.L2_NORMALIZED_STORM],
        T_grid=[30, 60, 120], n_seeds=3, delta=0.2, param_mode="practical",
        alpha=0.5, beta=0.8, per_step=True, master_seed=12),
    "logistic_all_kinds": dict(
        problem_name="synthetic_logistic",
        problem_params={"d": 12, "n_samples": 16, "feature_bound": 1.0,
                        "x_init": 0.5, "data_seed": 3},
        optimizers=list(K),
        T_grid=[20, 40, 80], n_seeds=2, delta=0.1, master_seed=13),
    "partial_aborts": dict(
        problem_name="noisy_quadratic",
        problem_params={"d": 2, "hessian_diag": 1e150, "sigma": 1e150, "x_init": 0.0},
        optimizers=[K.SGD, K.SIGNSTORM],
        T_grid=[2007, 2008], n_seeds=8, delta=0.1, param_mode="practical",
        alpha=3.5e-148, master_seed=7),
    "noiseless_practical_d1": dict(
        problem_name="noisy_quadratic",
        problem_params={"d": 1, "hessian_diag": 2.0, "sigma": 0.0, "x_init": -1.5},
        optimizers=[K.SIGNSTORM, K.STORM, K.L2_NORMALIZED_STORM, K.ADAM],
        T_grid=[1, 8, 27, 64], n_seeds=3, delta=0.1, param_mode="practical",
        alpha=0.7, beta=1.0, master_seed=14),
    "noiseless_theorem_beta1_zero": dict(
        problem_name="bounded_nonconvex",
        problem_params={"d": 1, "a": 1.5, "sigma": 0.0, "x_init": 1.2},
        optimizers=[K.SIGNSTORM, K.GENERALIZED_SIGN_SGD, K.MOMENTUM_SGD],
        T_grid=[40, 80, 160], n_seeds=2, delta=0.05, master_seed=15),
}


# lemma1_trials spans three of lemma1_montecarlo's 2000-trial chunks, and
# delta = 0.3 makes about 20 of them escape the envelope, so the count shows
CHECK_CONFIG = {
    "problem": {"name": "bounded_nonconvex",
                "params": {"d": 4, "sigma": 0.5, "x_init": [1.0, -0.5, 2.0, 0.3]}},
    "optimizers": ["signstorm"], "T_grid": [200], "n_seeds": 1, "delta": 0.3,
    "master_seed": 16,
    "check": {"T": 200, "n_seeds": 3, "n_probes": 300, "lemma1_trials": 4500,
              "lemma1_T": 400},
}


# a check at d = 1, where the representation check's sums changed order.
# With L = h for a one-dimensional quadratic the smoothness ratio is 1 up
# to rounding: it passes within the verifier's relative slack, and the
# check exits 0.
CHECK_CONFIG_D1 = {
    "problem": {"name": "noisy_quadratic",
                "params": {"d": 1, "hessian_diag": 1.5, "sigma": 0.4, "x_init": 2.0}},
    "optimizers": ["signstorm"], "T_grid": [300], "n_seeds": 1, "delta": 0.2,
    "master_seed": 17,
    "check": {"T": 300, "n_seeds": 3, "n_probes": 300, "lemma1_trials": 2000,
              "lemma1_T": 200},
}

# golden key -> the check config and the exit code of its `signstorm check`
CHECKS = {"check": (CHECK_CONFIG, 0), "check_d1": (CHECK_CONFIG_D1, 0)}


# name -> `signstorm params` arguments: the README example, sigma = 0
# (beta1 = 0), and beta2 > 0 at d = 7
README_PARAMS = ["--delta", "1", "--L1", "1", "--sigma1", "1", "--T", "1000"]
PARAMS_ARGS = {"readme": README_PARAMS,
               "noiseless": ["--delta", "1", "--L1", "1", "--sigma1", "0", "--T", "1000"],
               "beta2_d7": [*README_PARAMS, "--beta2", "0.3", "--d", "7"]}


# spec name -> whether its traces carry the eps_l1 diagnostics column
TRACE_SPECS = {"logistic_all_kinds": True, "partial_aborts": False,
               "noiseless_practical_d1": False}


# name -> one diagnosed cell: problem, hyperparameters, kind, T and seeds.
# Between them the cases cover all three problems, beta1 = 0, beta2 = 0,
# sigma = 0, d = 1, the per-step schedule and a kind outside the STORM
# family, whose g_prev only the diagnostics need, on an additive and on a
# finite-sum problem.
LOGISTIC = ("synthetic_logistic", {"d": 6, "n_samples": 16, "feature_bound": 1.0,
                                   "x_init": 0.3, "data_seed": 2})
DIAG_CASES = {
    "quadratic_d4": dict(
        problem=("noisy_quadratic", {"d": 4, "hessian_diag": [0.5, 1.0, 2.0, 1.5],
                                     "sigma": 0.5, "x_init": [1.0, -0.8, 0.5, 1.4]}),
        hp=HyperParams(eta=0.05, beta1=0.9, beta2=0.5), kind=K.SIGNSTORM, T=150,
        n_seeds=3),
    "quadratic_d1_noiseless_beta_zero": dict(
        problem=("noisy_quadratic", {"d": 1, "hessian_diag": 2.0, "sigma": 0.0,
                                     "x_init": -1.5}),
        hp=HyperParams(eta=0.1, beta1=0.0, beta2=0.0), kind=K.SIGNSTORM, T=40,
        n_seeds=2),
    "nonconvex_beta1_zero_per_step": dict(
        problem=("bounded_nonconvex", {"d": 3, "a": [1.0, 2.0, 0.5], "sigma": 0.4,
                                       "x_init": [0.5, -1.0, 2.0]}),
        hp=HyperParams(eta=0.2, beta1=0.0, beta2=0.5, schedule=Schedule.PER_STEP_SQRT_T),
        kind=K.SIGNSTORM, T=120, n_seeds=2),
    "quadratic_generalized_sign_sgd": dict(
        problem=("noisy_quadratic", {"d": 4, "hessian_diag": 1.0, "sigma": 0.3,
                                     "x_init": [0.7, 1.1, -0.4, 0.9]}),
        hp=HyperParams(eta=0.05, beta1=0.8, beta2=0.3), kind=K.GENERALIZED_SIGN_SGD,
        T=100, n_seeds=2),
    "logistic": dict(problem=LOGISTIC, hp=HyperParams(eta=0.05, beta1=0.8, beta2=0.3),
                     kind=K.SIGNSTORM, T=100, n_seeds=2),
    "logistic_generalized_sign_sgd": dict(
        problem=LOGISTIC, hp=HyperParams(eta=0.05, beta1=0.8, beta2=0.3),
        kind=K.GENERALIZED_SIGN_SGD, T=100, n_seeds=2),
    # the diagnosed runs of `signstorm check` on the check_suite benchmark
    # config at master seed 0 (theorem mode, delta 0.05, six seeds)
    "check_suite": dict(
        problem=("bounded_nonconvex", {"d": 10, "sigma": 0.5, "x_init": 1.0}),
        hp=None, kind=K.SIGNSTORM, T=2000, n_seeds=6),
}


def diag_cell(name: str):
    case = DIAG_CASES[name]
    problem = make_problem(*case["problem"])
    T, kind = case["T"], case["kind"]
    if name == "check_suite":
        spec = ExperimentSpec(problem_name=case["problem"][0],
                              problem_params=case["problem"][1], optimizers=[kind],
                              T_grid=[T], n_seeds=1, delta=0.05)
        hp = resolve_hyperparams(spec, problem, kind, T)
        seeds = [derive_seed(0, 202, s) for s in range(case["n_seeds"])]
    else:
        hp = case["hp"]
        seeds = [derive_seed(31, s) for s in range(case["n_seeds"])]
    return problem, hp, kind, T, seeds


def run_digests(run) -> dict:
    arrays = {"xi": run.trace.xi, "eps": run.trace.eps, "z": run.trace.z, "m": run.m,
              "v": run.v, "grad_exact": run.grad_exact, "step_l2": run.step_l2,
              "g_curr": run.g_curr, "g_prev": run.g_prev}
    return {name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for name, a in arrays.items()}


def diagnostic_digests(name: str) -> list[dict]:
    """Per seed, the digest of every array of its single-seed diagnosed run."""
    problem, hp, kind, T, seeds = diag_cell(name)
    return [run_digests(run_with_diagnostics(problem, hp, T, seed, kind))
            for seed in seeds]


def run_config(name: str, output_dir: Path) -> dict:
    """The `signstorm run` config equivalent to SPECS[name], traces on, and
    diagnostics on for the specs TRACE_SPECS marks."""
    spec = dict(SPECS[name])
    config = {
        "problem": {"name": spec.pop("problem_name"),
                    "params": spec.pop("problem_params")},
        "optimizers": [k.value for k in spec.pop("optimizers")],
        "output_dir": str(output_dir),
        "diagnostics": TRACE_SPECS.get(name, False),
        "write_traces": True,
    }
    config.update(spec)
    return config


def cli_run(name: str, tmp_dir: Path) -> Path:
    """`signstorm run` on ``run_config(name)``; returns its output directory."""
    out = tmp_dir / "out"
    path = tmp_dir / f"{name}.json"
    path.write_text(json.dumps(run_config(name, out)))
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["run", str(path)]) == 0
    return out


def file_digests(paths) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


def trace_digests(name: str, tmp_dir: Path) -> dict:
    return file_digests((cli_run(name, tmp_dir) / "traces").glob("*.csv"))


def chart_digests(name: str, tmp_dir: Path) -> dict:
    return file_digests(cli_run(name, tmp_dir).glob("*.svg"))


def params_stdout(name: str) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["params", *PARAMS_ARGS[name]]) == 0
    return out.getvalue()


def check_digest(tmp_dir: Path, key: str = "check") -> str:
    config, exit_code = CHECKS[key]
    config = dict(config, output_dir=str(tmp_dir / "out"))
    path = tmp_dir / "check_config.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", str(path)]) == exit_code
    return hashlib.sha256((tmp_dir / "out" / "check.json").read_bytes()).hexdigest()


def report_digest(name: str, workers: int, trace_dir: str | None = None) -> str:
    with warnings.catch_warnings():
        # the aborting cells overflow on purpose
        warnings.simplefilter("ignore", RuntimeWarning)
        report = run_experiment(ExperimentSpec(**SPECS[name]), max_workers=workers,
                                trace_dir=trace_dir)
    return hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_run_config_loads_to_its_spec(name, tmp_path):
    config = run_config(name, tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    loaded = RunConfig.load(str(path))
    # the JSON key `diagnostics` is the spec's collect_diagnostics
    assert loaded.spec == ExperimentSpec(**SPECS[name],
                                         collect_diagnostics=config["diagnostics"])
    assert loaded.output_dir == str(tmp_path / "out") and loaded.write_traces


def test_fingerprint_keys_are_the_spec_fields():
    spec = ExperimentSpec(**SPECS["quadratic_theorem"])
    doc = spec.config_fingerprint()
    fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
    assert set(doc) == fields - {"master_seed", "problem_name", "problem_params"} | {"problem"}
    assert doc["problem"] == {"name": spec.problem_name, "params": spec.problem_params}
    assert doc["optimizers"] == [k.value for k in spec.optimizers]


def test_golden_file_covers_every_spec():
    assert set(json.loads(GOLDEN.read_text())) == set(SPECS)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_report_matches_golden_digest(name, workers):
    assert report_digest(name, workers) == json.loads(GOLDEN.read_text())[name]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_report_with_traces_matches_golden_digest(name, tmp_path):
    # recording the traces leaves every headline, and so the report, unchanged
    digest = report_digest(name, 1, trace_dir=str(tmp_path / "traces"))
    assert digest == json.loads(GOLDEN.read_text())[name]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(TRACE_SPECS))
def test_traces_match_golden_digests(name, workers, tmp_path, monkeypatch):
    monkeypatch.setenv("SIGNSTORM_THREADS", str(workers))
    assert trace_digests(name, tmp_path) == json.loads(TRACE_GOLDEN.read_text())[name]


def test_chart_and_params_golden_files_cover_every_case():
    assert set(json.loads(CHART_GOLDEN.read_text())) == set(SPECS)
    assert set(json.loads(PARAMS_GOLDEN.read_text())) == set(PARAMS_ARGS)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_charts_match_golden_digests(name, workers, tmp_path, monkeypatch):
    monkeypatch.setenv("SIGNSTORM_THREADS", str(workers))
    assert chart_digests(name, tmp_path) == json.loads(CHART_GOLDEN.read_text())[name]


@pytest.mark.parametrize("name", sorted(PARAMS_ARGS))
def test_params_stdout_matches_golden(name):
    assert params_stdout(name) == json.loads(PARAMS_GOLDEN.read_text())[name]


def test_check_json_matches_golden_digest(tmp_path):
    assert check_digest(tmp_path) == json.loads(CHECK_GOLDEN.read_text())["check"]


def test_check_json_d1_matches_golden_digest(tmp_path):
    digest = check_digest(tmp_path, "check_d1")
    assert digest == json.loads(CHECK_GOLDEN.read_text())["check_d1"]


@pytest.mark.parametrize("key", sorted(CHECKS))
def test_check_json_is_chunk_invariant(key, tmp_path, monkeypatch):
    # a presample budget of two seeds' minimum rows splits the check's
    # three diagnosed seeds into chunks of 2 and 1
    d = CHECKS[key][0]["problem"]["params"]["d"]
    monkeypatch.setattr(harness, "_PRESAMPLE_VALUES", 2 * d * harness._MIN_PRESAMPLE_ROWS)
    chunks, chunk_body = [], harness._run_chunk

    def counted_chunk(problem, kind, hps, ends, seeds, live, recorder, empty):
        chunks.append(len(seeds))
        return chunk_body(problem, kind, hps, ends, seeds, live, recorder, empty)

    monkeypatch.setattr(harness, "_run_chunk", counted_chunk)
    assert check_digest(tmp_path, key) == json.loads(CHECK_GOLDEN.read_text())[key]
    assert chunks == [2, 1]


def test_diagnostics_golden_file_covers_every_case():
    assert set(json.loads(DIAG_GOLDEN.read_text())) == set(DIAG_CASES)


@pytest.mark.parametrize("name", sorted(DIAG_CASES))
def test_diagnostics_match_golden_digests(name):
    expected = json.loads(DIAG_GOLDEN.read_text())[name]
    assert diagnostic_digests(name) == expected
    # all seeds of the case stepped together in one seed-batched call
    problem, hp, kind, T, seeds = diag_cell(name)
    recorder = DiagnosticRecorder(len(seeds), T, problem.d)
    run_cell(problem, kind, hp, T, seeds, recorder)
    runs = [recorder.run(s, seed, kind, hp) for s, seed in enumerate(seeds)]
    for run in runs:
        assert run.m.shape == (T, problem.d) and run.step_l2.shape == (T,)
    assert [run_digests(run) for run in runs] == expected


if __name__ == "__main__":
    print(json.dumps({name: report_digest(name, 1) for name in sorted(SPECS)},
                     indent=2, sort_keys=True))
    checks = {}
    for key in CHECKS:
        with tempfile.TemporaryDirectory() as tmp:
            checks[key] = check_digest(Path(tmp), key)
    print(json.dumps(checks, indent=2))
    traces = {}
    for name in sorted(TRACE_SPECS):
        with tempfile.TemporaryDirectory() as tmp:
            traces[name] = trace_digests(name, Path(tmp))
    print(json.dumps(traces, indent=2, sort_keys=True))
    charts = {}
    for name in sorted(SPECS):
        with tempfile.TemporaryDirectory() as tmp:
            charts[name] = chart_digests(name, Path(tmp))
    print(json.dumps(charts, indent=2, sort_keys=True))
    print(json.dumps({name: params_stdout(name) for name in sorted(PARAMS_ARGS)},
                     indent=2, sort_keys=True))
    print(json.dumps({name: diagnostic_digests(name) for name in sorted(DIAG_CASES)},
                     indent=2, sort_keys=True))
