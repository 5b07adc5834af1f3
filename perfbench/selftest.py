"""Self-tests of the benchmark itself (not of signstorm).

    python3 perfbench/selftest.py

Checks that a tampered golden pin fails every operation, that every metric
name and unit is well formed and matches BENCHMARK.json, that no traced
span's children cover more than the span, and that the exact counts the
trace reports repeat across two traced runs.  Takes about a minute on two
cores; exits nonzero if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys

import numpy as np

import run
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
EXACT_COUNTS = ["optim.step.calls", "problems.exact_grad.calls", "problems.value.calls",
                "problems.stoch_grad.calls", "harness.run_trial.calls_per_trial",
                "problems.make_problem.calls_per_cell"]


def test_tampered_golden_fails_every_operation():
    golden = run.load_golden()
    golden["rate_grid"]["report_sha256"]["0"] = "0" * 64
    tampered = run.WORK / "golden_tampered.json"
    tampered.parent.mkdir(parents=True, exist_ok=True)
    tampered.write_text(json.dumps(golden))
    real, run.GOLDEN = run.GOLDEN, tampered
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "rate_grid", "--seed", "0", "--seconds", "0"])
    finally:
        run.GOLDEN = real
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code == 0
    assert result["attempted"] > 0 and result["failed"] == result["attempted"], result
    assert result["correct"] is False


def test_metric_names_and_units():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ours = {**run.END_TO_END, **run.PER_LAYER}
    assert declared == ours, set(declared) ^ set(ours)
    for name, unit in ours.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), (name, unit)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}


def traced_once(w):
    cfg, out_dir = run.prepare(w, 0)
    spans_path = cfg.parent / "spans.json"
    argv = [sys.executable, str(run.BENCH / "tracer.py"), "--out", str(spans_path),
            "--trace", w.command, str(cfg)]
    checker = run.OutputChecker(w, run.pinned(run.load_golden(), w, 0), out_dir)
    _, attempted, failed = run.run_command(argv, run.child_env(1), out_dir,
                                           cfg.parent / "stderr.log", checker)
    assert failed == 0, f"{w.name}: traced output failed its check"
    doc = json.loads(spans_path.read_text())
    metrics, _ = run.layer_metrics(doc, w, doc["wall_ns"] / 1e9, 1.0, 0)
    return doc, metrics


def children_within_parents(doc):
    _, start, end, parent, _ = run.span_arrays(doc)
    has = parent >= 0
    assert np.all(start[has] >= start[parent[has]]) and np.all(end[has] <= end[parent[has]])
    own = run.self_times((end - start).astype(np.float64), parent)
    assert np.all(own >= 0), f"{int(np.sum(own < 0))} spans with negative self time"


def test_traces_nest_and_counts_repeat():
    for w in WORKLOADS.values():
        first_doc, first = traced_once(w)
        children_within_parents(first_doc)
        _, second = traced_once(w)
        for key in EXACT_COUNTS:
            assert first[key] == second[key], (w.name, key, first[key], second[key])
        if w.name == "logistic_traced":
            assert first["harness.run_trial.calls_per_trial"] == 2.0
        if w.name == "rate_grid":
            assert first["harness.run_trial.calls_per_trial"] == 1.0


def main() -> int:
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
