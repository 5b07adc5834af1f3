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
record the CSV traces, a bounded amount at a time.  ``check`` steps its
diagnosed seeds in one call of the same engine, one chunk at a time, and
checks each chunk in blocks of steps as they are stepped.
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
    MalformedReport,
    RhoConstraintViolated,
    SignStormError,
)
from .harness import (MAX_HORIZON, ExperimentSpec, canonical_json, resolve_hyperparams,
                      run_experiment, write_text)
from .optim import OptimizerKind
from .problems import AssumptionCheck, unallocatable, verify_assumptions
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
# integer check key -> its smallest allowed value; the largest is MAX_HORIZON
_CHECK_INTS = {"T": 1, "n_seeds": 1, "n_probes": 1,
               "lemma1_trials": diag.LEMMA1_MIN_TRIALS, "lemma1_T": 1}
_CHECK_KEYS = {*_CHECK_INTS, "mds", "fault_injection"}
# simulated lemma 1 steps a check may ask for: about 50 s at ~5 ns a step
_LEMMA1_STEPS = 10**10
# diagnosed seed-steps a check may ask for: about an hour at a few us a step
_DIAGNOSED_STEPS = 10**9
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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
        if not 0.0 <= typed.get("eps_guard", 0.0) < math.inf:
            raise ConfigError(f"eps_guard must be a finite number >= 0, got {raw['eps_guard']!r}")
        param_mode = str(raw.get("param_mode", "theorem"))
        # the practical schedule's keys, which theorem mode would ignore
        ignored = [key for key in ("alpha", "beta", "per_step") if key in raw]
        if param_mode == "theorem" and ignored:
            raise ConfigError(f'{ignored[0]} applies only to "param_mode": "practical"; '
                              "theorem mode would ignore it, so remove it or set "
                              '"param_mode": "practical"')
        if typed.get("diagnostics") and typed.get("write_traces") is False:
            raise ConfigError('"diagnostics": true adds a column to the traces that '
                              '"write_traces": false turns off, so remove one of the two')
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
                              param_mode=param_mode, **typed)
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
        if not _is_int(value) or not low <= value <= MAX_HORIZON:
            raise ConfigError(f"check.{key} must be an integer from {low} to {MAX_HORIZON}, "
                              f"got {value!r}")
    steps = check["lemma1_trials"] * check["lemma1_T"]
    if steps > _LEMMA1_STEPS:
        raise ConfigError(f"check.lemma1_trials * check.lemma1_T must be at most {_LEMMA1_STEPS} "
                          f"simulated steps (about 50 s), got {steps}")
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
    write_text(report_path, text)
    doc = json.loads(text)
    for name, render in charts.CHARTS.items():
        write_text(os.path.join(out, f"{name}.svg"), render(doc))
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
    check = config.check
    T = check.get("T", min(spec.T_grid[0], 2000))
    n_seeds = check.get("n_seeds", min(spec.n_seeds, 20))
    # the diagnosed runs hold no more memory at a longer horizon, so their
    # length is bounded by time
    if T * n_seeds > _DIAGNOSED_STEPS:
        raise ConfigError(f"check.T * check.n_seeds must be at most {_DIAGNOSED_STEPS} "
                          f"diagnosed steps, got {T} * {n_seeds}")
    # first, so that paths too large to allocate fail before any other work
    with unallocatable(f"check.lemma1_T = {check['lemma1_T']}: the simulated "
                       "martingale paths are too large to allocate"):
        l1_rep = diag.lemma1_montecarlo(check["lemma1_trials"], check["lemma1_T"],
                                        spec.delta, diag.MdsKind(check["mds"]),
                                        seed=derive_seed(spec.master_seed, 303))
    problem = spec.build_problem()
    scale = check["fault_injection"]["L_scale"]
    if scale != 1.0:
        problem.constants = dataclasses.replace(
            problem.constants, L_vec=problem.constants.L_vec * scale)
    kind = OptimizerKind.SIGNSTORM
    hp = resolve_hyperparams(spec, problem, kind, T)
    if config.eps_guard > 0:
        hp = dataclasses.replace(hp, eps_guard=config.eps_guard)
    with unallocatable(f"check.n_probes = {check['n_probes']}: the assumption "
                       "probes are too large to allocate"):
        rep = verify_assumptions(problem, check["n_probes"],
                                 make_rng(derive_seed(spec.master_seed, 101)))
    verdicts = [_verdict(f"assumption_{c.name}", "deterministic", c) for c in rep.checks()]

    seeds = [derive_seed(spec.master_seed, 202, s) for s in range(n_seeds)]
    with unallocatable(f"check.T = {T}, check.n_seeds = {n_seeds}: the diagnosed "
                       "runs' arrays are too large to allocate"):
        results = diag.check_in_blocks(problem, hp, T, seeds, spec.delta, kind)
    # a failed statistical precondition skips both statistical verdicts
    failed = next((res for name, res in results.items() if isinstance(res, Exception)
                   and diag.RECORD_CHECKS[name][0] == "statistical"), None)
    for name, (kind_, _) in diag.RECORD_CHECKS.items():
        skip = failed is not None and kind_ == "statistical"
        verdicts.append(_verdict(name, kind_, failed if skip else results[name]))
        if name == "representation" and T > diag.REPRESENTATION_STEPS:
            # a check of the first steps must not read as one of all
            verdicts[-1]["steps_checked"] = diag.REPRESENTATION_STEPS
    verdicts.append(_verdict(l1_rep.name, "statistical", l1_rep))
    return verdicts


def _verdict(name: str, kind: str, result: diag.Result | AssumptionCheck) -> dict:
    """The ``check.json`` entry of one checker's result: "skipped" with its
    reason for a precondition error, else "pass" or "fail" with its figures."""
    entry = {"checker": name, "kind": kind}
    if isinstance(result, Exception):
        return {**entry, "status": "skipped", "reason": str(result)}
    entry["status"] = "pass" if result.passed else "fail"
    if isinstance(result, diag.FrequencyReport):
        entry.update(violation_fraction=result.violation_fraction,
                     allowed_fraction=result.allowed_fraction, n_total=result.n_total)
    elif isinstance(result, diag.CheckResult):
        entry.update(worst_ratio=result.worst_ratio, worst_t=result.worst_t)
    else:
        entry.update(worst_ratio=result.worst_ratio, detail=result.detail)
    return entry


def cmd_check(config_path: str) -> int:
    config = RunConfig.load(config_path)
    verdicts = _check_verdicts(config)
    os.makedirs(config.output_dir, exist_ok=True)
    text = canonical_json({"verdicts": verdicts})
    write_text(os.path.join(config.output_dir, "check.json"), text)
    print(text, end="")
    hard_fail = any(v["status"] == "fail" and v["kind"] == "deterministic"
                    for v in verdicts)
    return EXIT_CHECK if hard_fail else EXIT_OK


def cmd_report(report_path: str, chart: str, out_path: str | None) -> int:
    try:
        with open(report_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedReport(f"malformed report: {exc}") from None
    target = out_path or os.path.join(os.path.dirname(report_path) or ".", f"{chart}.svg")
    write_text(target, charts.CHARTS[chart](doc))
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
    p_report.add_argument("--chart", choices=list(charts.CHARTS),
                          default=next(iter(charts.CHARTS)))
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
