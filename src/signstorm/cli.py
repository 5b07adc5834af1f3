"""Command-line front end.

Subcommands:
    run <config.json>                 experiment -> traces, report.json, SVG charts
    check <config.json>               diagnostic suite -> JSON verdict per checker
    report <report.json> --chart ...  re-render a chart from an existing report
    params ...                        print the horizon-tuned parameter choice

Exit codes: 0 success, 1 config error, 2 check failure, 3 I/O error; every
command's errors reach :func:`main`, which prints one line and picks the
code.  The worker pool is capped by the SIGNSTORM_THREADS environment
variable.  Every command is a thin shell over the library; outputs stay
inside the configured output directory.  A config file loads into a
:class:`RunConfig`: the ``ExperimentSpec`` its experiment keys build, plus
the four keys only the CLI reads.  ``run`` steps every trial once, in one
task per optimizer (or per optimizer and seed range), and those tasks
record the CSV traces, a bounded amount at a time.  ``check`` steps all
its diagnosed seeds together in one call of the same engine.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import charts, diagnostics as diag
from .errors import (
    ConfigError,
    InvalidConstant,
    PreconditionNotMet,
    RhoConstraintViolated,
    SignStormError,
)
from .harness import ExperimentSpec, resolve_hyperparams, run_cell, run_experiment
from .optim import OptimizerKind
from .problems import verify_assumptions
from .rngutil import derive_seed, make_rng
from .theory import TheoremInputs, c_rho, theorem_bound, theorem_params

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK = 2
EXIT_IO = 3

_REQUIRED = ["problem", "optimizers", "T_grid", "n_seeds", "delta", "master_seed",
             "output_dir"]
# JSON type of each typed top-level key: an integer, a number or a flag
_TOP_TYPES = {"n_seeds": int, "master_seed": int, "delta": float, "beta2": float,
              "alpha": float, "beta": float, "eps_guard": float,
              "diagnostics": bool, "per_step": bool, "write_traces": bool}
_TOP_KEYS = {*_REQUIRED, *_TOP_TYPES, "param_mode", "check"}
# integer check key -> its smallest allowed value
_CHECK_INTS = {"T": 1, "n_seeds": 1, "n_probes": 1,
               "lemma1_trials": diag.LEMMA1_MIN_TRIALS, "lemma1_T": 1}
_CHECK_KEYS = {*_CHECK_INTS, "mds", "fault_injection"}
# check key -> its default; T and n_seeds default from the experiment grid
_CHECK_DEFAULTS = {"n_probes": 2000, "lemma1_trials": 10000, "lemma1_T": 1000,
                   "mds": diag.MdsKind.RADEMACHER.value, "fault_injection": {}}


@dataclasses.dataclass
class RunConfig:
    """A validated config file: the :class:`ExperimentSpec` its keys build,
    and the four keys only the CLI reads (``output_dir``, ``write_traces``,
    ``eps_guard`` and the ``check`` section, its defaults filled in).  See
    README for the JSON schema."""

    spec: ExperimentSpec
    output_dir: str
    write_traces: bool = True
    eps_guard: float = 0.0
    check: dict = dataclasses.field(default_factory=dict)

    @staticmethod
    def load(path: str) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in _REQUIRED:
            if key not in raw:
                raise ConfigError(f"missing required field: {key}")
        problem = raw["problem"]
        if not isinstance(problem, dict) or "name" not in problem:
            raise ConfigError("problem must be an object with a 'name'")
        unknown = set(problem) - {"name", "params"}
        if unknown:
            raise ConfigError(f"unknown problem keys: {sorted(unknown)}")
        params = problem.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"problem.params must be an object, got {params!r}")
        if not isinstance(raw["optimizers"], list):
            raise ConfigError(f"optimizers must be a list, got {raw['optimizers']!r}")
        try:
            optimizers = [OptimizerKind(o) for o in raw["optimizers"]]
        except ValueError as exc:
            raise ConfigError(f"unknown optimizer: {exc}")
        T_grid = raw["T_grid"]
        if not isinstance(T_grid, list) or not all(map(_is_int, T_grid)):
            raise ConfigError(f"T_grid must be a list of integers, got {T_grid!r}")
        typed = {key: _typed(key, raw[key]) for key in _TOP_TYPES if key in raw}
        check = _check_section(raw.get("check", {}))
        out = raw["output_dir"]
        if not isinstance(out, str) or not out:
            raise ConfigError(f"output_dir must be a non-empty string, got {out!r}")
        # the typed keys RunConfig declares are the CLI's; the rest build the spec
        cli = {f.name: typed.pop(f.name) for f in dataclasses.fields(RunConfig)
               if f.name in typed}
        if "diagnostics" in typed:
            typed["collect_diagnostics"] = typed.pop("diagnostics")
        spec = ExperimentSpec(problem_name=problem["name"], problem_params=dict(params),
                              optimizers=optimizers, T_grid=T_grid,
                              param_mode=str(raw.get("param_mode", "theorem")), **typed)
        return RunConfig(spec, out, check=check, **cli)

    def to_spec(self) -> ExperimentSpec:
        """The spec; the benchmark's set-up probe reads it through this call."""
        return self.spec


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _typed(key: str, value):
    """A top-level value of the JSON type ``_TOP_TYPES`` names for its key."""
    kind = _TOP_TYPES[key]
    if kind is bool:
        ok = isinstance(value, bool)
    else:
        ok = _is_int(value) or (kind is float and isinstance(value, float))
    if not ok:
        name = {int: "an integer", float: "a number", bool: "true or false"}[kind]
        raise ConfigError(f"{key} must be {name}, got {value!r}")
    return kind(value)


def _check_section(check) -> dict:
    """The ``check`` section with its fixed defaults filled in, validated so
    that ``check`` fails before any work starts; a bad value is a
    ConfigError that names its key."""
    if not isinstance(check, dict) or set(check) - _CHECK_KEYS:
        raise ConfigError(f"check section allows keys {sorted(_CHECK_KEYS)}")
    check = {**_CHECK_DEFAULTS, **check}
    for key, low in _CHECK_INTS.items():
        value = check.get(key, low)
        if not _is_int(value) or value < low:
            raise ConfigError(f"check.{key} must be an integer >= {low}, got {value!r}")
    kinds = [m.value for m in diag.MdsKind]
    if check["mds"] not in kinds:
        raise ConfigError(f"check.mds must be one of {kinds}, got {check['mds']!r}")
    fault = check["fault_injection"]
    if not isinstance(fault, dict) or set(fault) - {"L_scale"}:
        raise ConfigError(f"check.fault_injection allows only the key 'L_scale', got {fault!r}")
    scale = fault.get("L_scale", 1.0)
    if isinstance(scale, bool) or not isinstance(scale, (int, float)) or not 0 < scale < math.inf:
        raise ConfigError(f"check.fault_injection.L_scale must be a positive number, "
                          f"got {scale!r}")
    check["fault_injection"] = {"L_scale": scale}
    return check


def cmd_run(config_path: str) -> int:
    config = RunConfig.load(config_path)
    if config.eps_guard != 0.0:
        raise ConfigError("eps_guard applies only to `check`; `run` would ignore it, "
                          "so remove it from a run config")
    out = config.output_dir
    # the cells write the traces as they run; a bad problem parameter
    # raises in the first cell, before anything is written
    report = run_experiment(
        config.spec, trace_dir=os.path.join(out, "traces") if config.write_traces else None)
    os.makedirs(out, exist_ok=True)
    report_path = os.path.join(out, "report.json")
    text = report.to_json()
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    doc = json.loads(text)
    for name, render in (("convergence_bands", charts.convergence_bands_svg),
                         ("rate_fit", charts.rate_fit_svg)):
        with open(os.path.join(out, f"{name}.svg"), "w", encoding="utf-8") as fh:
            fh.write(render(doc))
    print(f"report written to {report_path}")
    return EXIT_OK


def _check_verdicts(config: RunConfig) -> list[dict]:
    """Run the diagnostic suite; one verdict dict per checker.

    The lemma-level checks are statements about the variance-reduced
    estimator, so the diagnosed runs always use it (with the config's
    problem and parameter mode) regardless of which optimizers the
    experiment itself compares.  Of the seeds that turn non-finite, the
    lowest-index one's NonFiniteValue is raised.
    """
    spec = config.spec
    problem = spec.build_problem()
    check = config.check
    scale = check["fault_injection"]["L_scale"]
    if scale != 1.0:
        problem.constants = dataclasses.replace(
            problem.constants, L_vec=problem.constants.L_vec * scale)
    T = check.get("T", min(spec.T_grid[0], 2000))
    n_seeds = check.get("n_seeds", min(spec.n_seeds, 20))
    kind = OptimizerKind.SIGNSTORM
    hp = resolve_hyperparams(spec, problem, kind, T)
    if config.eps_guard > 0:
        hp = dataclasses.replace(hp, eps_guard=config.eps_guard)
    consts = problem.constants
    verdicts: list[dict] = []

    def verdict(name, kind_, status, **extra):
        verdicts.append({"checker": name, "kind": kind_, "status": status, **extra})

    rep = verify_assumptions(problem, check["n_probes"],
                             make_rng(derive_seed(spec.master_seed, 101)))
    for c in rep.checks():
        verdict(f"assumption_{c.name}", "deterministic",
                "pass" if c.passed else "fail",
                worst_ratio=c.worst_ratio, detail=c.detail)

    seeds = [derive_seed(spec.master_seed, 202, s) for s in range(n_seeds)]
    recorder = diag.DiagnosticRecorder(n_seeds, T, problem.d)
    run_cell(problem, kind, hp, T, seeds, recorder)
    runs = [recorder.run(s, seed, kind, hp) for s, seed in enumerate(seeds)]

    for name, fn in (("movement_bound",
                      lambda r: diag.movement_bound_check(r.step_l2, r.hp, problem.d)),
                     ("representation",
                      lambda r: diag.representation_check(r.trace, r.hp.beta1)),
                     ("storm_decomposition", diag.decomposition_check),
                     ("estimator_ratio", diag.estimator_ratio_check)):
        try:
            # max holds one result at a time and keeps the first of equal
            # ratios, whose worst_t the verdict reports
            worst = max(map(fn, runs), key=lambda res: res.worst_ratio)
        except PreconditionNotMet as exc:
            verdict(name, "deterministic", "skipped", reason=str(exc))
            continue
        verdict(name, "deterministic", "pass" if worst.passed else "fail",
                worst_ratio=worst.worst_ratio, worst_t=worst.worst_t)

    try:
        eps_rep = diag.epsilon_bound_frequency([r.trace for r in runs], hp,
                                               consts.L_vec, consts.sigma_vec,
                                               spec.delta)
        dich_rep = diag.sign_dichotomy_frequency(runs, consts.L_vec,
                                                 consts.sigma_vec, spec.delta)
        for rep_ in (eps_rep, dich_rep):
            verdict(rep_.name, "statistical", "pass" if rep_.passed else "fail",
                    violation_fraction=rep_.violation_fraction,
                    allowed_fraction=rep_.allowed_fraction, n_total=rep_.n_total)
    except (PreconditionNotMet, RhoConstraintViolated) as exc:
        verdict("epsilon_bound", "statistical", "skipped", reason=str(exc))
        verdict("sign_dichotomy", "statistical", "skipped", reason=str(exc))

    l1_rep = diag.lemma1_montecarlo(check["lemma1_trials"], check["lemma1_T"],
                                    spec.delta, diag.MdsKind(check["mds"]),
                                    seed=derive_seed(spec.master_seed, 303))
    verdict(l1_rep.name, "statistical", "pass" if l1_rep.passed else "fail",
            violation_fraction=l1_rep.violation_fraction,
            allowed_fraction=l1_rep.allowed_fraction, n_total=l1_rep.n_total)
    return verdicts


def cmd_check(config_path: str) -> int:
    config = RunConfig.load(config_path)
    verdicts = _check_verdicts(config)
    os.makedirs(config.output_dir, exist_ok=True)
    path = os.path.join(config.output_dir, "check.json")
    text = json.dumps({"verdicts": verdicts}, sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    print(text)
    hard_fail = any(v["status"] == "fail" and v["kind"] == "deterministic"
                    for v in verdicts)
    return EXIT_CHECK if hard_fail else EXIT_OK


def cmd_report(report_path: str, chart: str, out_path: str | None) -> int:
    try:
        with open(report_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        print(f"error: malformed report: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    render = {"convergence_bands": charts.convergence_bands_svg,
              "rate_fit": charts.rate_fit_svg}[chart]
    svg = render(doc)
    target = out_path or os.path.join(os.path.dirname(report_path) or ".", f"{chart}.svg")
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"chart written to {target}")
    return EXIT_OK


def cmd_params(args: argparse.Namespace) -> int:
    inp = TheoremInputs(delta=args.delta, L1_norm=args.L1, sigma1_norm=args.sigma1,
                        T=args.T, beta2=args.beta2,
                        confidence_delta=args.confidence, d=args.d)
    hp = theorem_params(inp)
    bound = theorem_bound(inp, hp.rho)
    print(f"eta      = {hp.eta!r}")
    print(f"beta1    = {hp.beta1!r}")
    print(f"beta2    = {hp.beta2!r}")
    print(f"rho      = {hp.rho!r}")
    print(f"c(rho)   = {c_rho(hp.rho)!r}")
    print(f"bound reference (big-O constants = 1) = {bound!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="signstorm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")

    p_check = sub.add_parser("check", help="run the diagnostic suite")
    p_check.add_argument("config")

    p_report = sub.add_parser("report", help="render a chart from a report")
    p_report.add_argument("report")
    p_report.add_argument("--chart", choices=["convergence_bands", "rate_fit"],
                          default="convergence_bands")
    p_report.add_argument("--out", default=None)

    p_params = sub.add_parser("params", help="print the horizon-tuned parameters")
    p_params.add_argument("--delta", type=float, required=True)
    p_params.add_argument("--L1", type=float, required=True)
    p_params.add_argument("--sigma1", type=float, required=True)
    p_params.add_argument("--T", type=int, required=True)
    p_params.add_argument("--beta2", type=float, default=0.0)
    p_params.add_argument("--confidence", type=float, default=0.05)
    p_params.add_argument("--d", type=int, default=1)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "check":
            return cmd_check(args.config)
        if args.command == "report":
            return cmd_report(args.report, args.chart, args.out)
        if args.command == "params":
            return cmd_params(args)
    except (ConfigError, InvalidConstant, RhoConstraintViolated) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SignStormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
