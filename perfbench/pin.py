"""Regenerate golden.json, the benchmark's correctness pins.

    python3 perfbench/pin.py

Runs each workload's command once per pinned seed (pool at nproc workers) and
records the SHA-256 of `report.json` for the `run` workloads.  For
`check_suite` it records the verdict list (checker, status, n_total),
which must come out identical and all-pass on every seed pinned; the same
list then applies to any seed.  Re-pin only when a change means to alter
report bytes, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import (GOLDEN, child_env, cli_argv, nproc, prepare, spawn,
                 structural_problem, verdict_list)
from workloads import WORKLOADS

DEFAULT_SEED = 0
HELD_OUT_SEED = 1
PINNED_SEEDS = range(32)   # holds both seeds above


def main() -> int:
    golden = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED}
    for w in WORKLOADS.values():
        workers = nproc() if w.command == "run" else 1
        env = child_env(workers)
        pins, verdicts = {}, None
        for seed in PINNED_SEEDS:
            cfg, out_dir = prepare(w, seed)
            res = spawn(cli_argv(w, cfg), env, cfg.parent / "stderr.log")
            if res.code != 0:
                raise SystemExit(f"{w.name} seed {seed}: exit code {res.code}")
            if w.command == "check":
                got = verdict_list(json.loads((out_dir / "check.json").read_text()))
                if any(v[1] != "pass" for v in got) or verdicts not in (None, got):
                    raise SystemExit(f"{w.name} seed {seed}: verdicts {got}")
                verdicts = got
                continue
            data = (out_dir / "report.json").read_bytes()
            problem = structural_problem(w, json.loads(data), out_dir)
            n_fail = sum(c["n_fail"] for c in json.loads(data)["cells"])
            if problem or n_fail:
                raise SystemExit(f"{w.name} seed {seed}: {problem or f'{n_fail} failed trials'}")
            pins[str(seed)] = hashlib.sha256(data).hexdigest()
            print(f"{w.name} seed {seed}: {pins[str(seed)]} ({res.wall_s:.2f} s)",
                  file=sys.stderr)
        golden[w.name] = ({"verdicts": verdicts} if w.command == "check"
                          else {"report_sha256": pins})
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
