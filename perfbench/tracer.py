"""Run one `signstorm` CLI command in this process, optionally traced.

    PYTHONPATH=src python3 perfbench/tracer.py --out SPANS.json [--trace] run|check CONFIG

With ``--trace``, the public functions of each module are wrapped where
their callers look them up (the modules import names directly, so a name
is patched in the namespace of the module that calls it).  Each call
records one span: name, start, end, parent span id and an optional tag
(the optimizer kind for ``optim.step``).  Spans stay in memory and are
written to ``--out`` when the command ends, together with the command's
wall time and exit code.  Without ``--trace`` only the wall time and exit
code are written, which gives the untraced twin for the overhead ratio.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time


class Tracer:
    """In-memory span recorder for a single-threaded process."""

    def __init__(self):
        self.spans: list = []   # [name, start_ns, end_ns, parent, tag]
        self._stack: list[int] = []

    def wrap(self, name, fn, tag=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1,
                    tag(args, kwargs) if tag is not None else None]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def kind_tag(step):
    """Tag for optim.step spans: the optimizer kind, passed by position or
    by keyword, else the signature's default."""
    param = inspect.signature(step).parameters.get("kind")
    default = param.default if param is not None else None

    def tag(args, kwargs):
        kind = args[3] if len(args) > 3 else kwargs.get("kind", default)
        return getattr(kind, "value", None)

    return tag


def install(tracer: Tracer) -> None:
    """Patch every traced name in the namespace that looks it up.  A name a
    module no longer has is skipped, so a layer that is gone reads 0."""
    from signstorm import charts, cli, diagnostics, harness, problems

    def patch(owner, attr, name, tag=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        setattr(owner, attr, tracer.wrap(name, fn, tag(fn) if tag else None))

    # optim.step is looked up by name in the two trajectory loops
    patch(harness, "step", "optim.step", tag=kind_tag)
    patch(diagnostics, "step", "optim.step", tag=kind_tag)
    # run_trial: pool cells call harness.run_trial, the trace re-run cli.run_trial
    patch(harness, "run_trial", "harness.run_trial")
    patch(cli, "run_trial", "harness.run_trial")
    patch(cli, "run_experiment", "harness.run_experiment")
    patch(cli, "write_trace_csv", "harness.write_trace_csv")
    patch(harness, "make_problem", "problems.make_problem")
    patch(cli, "verify_assumptions", "problems.verify_assumptions")
    for cls in ("NoisyQuadratic", "BoundedNonConvex", "SyntheticLogistic"):
        for method in ("exact_grad", "value", "stoch_grad", "presample_payloads"):
            patch(getattr(problems, cls, None), method, f"problems.{method}")
    # cli.trace_rerun_s is cmd_run time minus the experiment and the charts
    patch(cli, "cmd_run", "cli.cmd_run")
    # cli reaches diagnostics and charts through the module object
    for fn in ("run_with_diagnostics", "movement_bound_check", "representation_check",
               "decomposition_check", "estimator_ratio_check",
               "epsilon_bound_frequency", "sign_dichotomy_frequency",
               "lemma1_montecarlo"):
        patch(diagnostics, fn, f"diagnostics.{fn}")
    patch(charts, "convergence_bands_svg", "charts.render")
    patch(charts, "rate_fit_svg", "charts.render")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("command", choices=["run", "check"])
    ap.add_argument("config")
    args = ap.parse_args(argv)

    from signstorm import cli

    tracer = Tracer()
    if args.trace:
        install(tracer)
    stdout = sys.stdout
    t0 = time.perf_counter_ns()
    try:
        with open(os.devnull, "w") as sink:
            sys.stdout = sink
            code = cli.main([args.command, args.config])
    finally:
        sys.stdout = stdout
    wall_ns = time.perf_counter_ns() - t0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "wall_ns": wall_ns, "spans": tracer.spans}, fh,
                  separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
