"""signstorm benchmark: drive the real CLI on one workload and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` of the checkout
this file sits in.  ``--trace 0`` measures the end-to-end metrics with
tracing off: `signstorm run` or `signstorm check` repeated one at a time
(a closed loop) for ``--seconds``, each preceded by three fresh-interpreter
set-ups, reporting medians.  ``--trace 1`` repeats rounds of one pooled
untraced command, one serial untraced command and one serial traced
command, and reports the per-layer metrics from the traced spans (medians
over rounds).

Every command's output is checked: the report's SHA-256 against the pin in
``golden.json`` (or, for an unpinned seed, against the run's first report,
with a warning on standard error), the report's structure, and for `check`
the verdict list.  A mismatch or a nonzero exit fails every operation of
that command.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give provenance, every metric with its unit, and the traced layer shares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import ALL_KINDS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
GOLDEN = BENCH / "golden.json"

END_TO_END = {"wall_s": "s", "steps_per_s": "steps/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "optim.step.calls": "count",
    "optim.step.us_per_call": "us",
    **{f"optim.step.us_per_call.{k}": "us" for k in ALL_KINDS},
    "optim.step.share": "1",
    "problems.exact_grad.calls": "count",
    "problems.exact_grad.us_per_call": "us",
    "problems.value.calls": "count",
    "problems.value.us_per_call": "us",
    "problems.stoch_grad.calls": "count",
    "problems.stoch_grad.us_per_call": "us",
    "problems.presample_payloads.busy_s": "s",
    "problems.make_problem.calls_per_cell": "1",
    "problems.verify_assumptions.busy_s": "s",
    "harness.run_trial.calls_per_trial": "1",
    "harness.run_trial.self_us_per_step": "us",
    "harness.run_experiment.busy_s": "s",
    "harness.pool_cpu_utilization": "1",
    "harness.write_trace_csv.busy_s": "s",
    "harness.write_trace_csv.bytes": "B",
    "cli.trace_rerun_s": "s",
    "diagnostics.run_with_diagnostics.busy_s": "s",
    "diagnostics.run_with_diagnostics.self_us_per_step": "us",
    "diagnostics.representation_check.busy_s": "s",
    "diagnostics.statistical_checks.busy_s": "s",
    "diagnostics.lemma1_montecarlo.busy_s": "s",
    "diagnostics.bytes_held_computed": "B",
    "charts.render_s": "s",
    "trace.overhead_ratio": "1",
}

MIN_COMMANDS = 3          # commands per run even when --seconds is short
SETUP_PROBES = 3          # set-ups before each command; setup_s is their median
COMMAND_TIMEOUT_S = 120.0

SETUP_PROBE = (
    "import sys\n"
    "import signstorm\n"
    "from signstorm.cli import RunConfig\n"
    "RunConfig.load(sys.argv[1]).to_spec().build_problem()\n"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(workers: int) -> dict:
    """Environment for every child: one BLAS thread, pool capped at nproc."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               SIGNSTORM_THREADS=str(min(workers, nproc())))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    return env


@dataclass
class Spawned:
    code: int
    wall_s: float
    maxrss_mb: float      # largest RSS of the child and the children it reaped
    cpu_s: float          # user + system CPU of the same set of processes


def spawn(argv: list[str], env: dict, log: Path) -> Spawned:
    """Run one child to completion in its own process group, with rusage."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(proc.returncode, wall, ru.ru_maxrss / 1024.0,
                   ru.ru_utime + ru.ru_stime)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def pinned(golden: dict, w: Workload, seed: int):
    """The pin that applies to this workload and seed, or None."""
    if w.command == "check":
        return golden[w.name]["verdicts"]
    pins = golden[w.name]["report_sha256"]
    if str(seed) not in pins:
        sys.stderr.write(
            f"warning: {w.name} has no golden pin for seed {seed} (pinned seeds: "
            f"{', '.join(sorted(pins, key=int))}); its reports are checked only against "
            "this run's first report and for structure, which cannot catch a change "
            "that alters every report alike\n")
    return pins.get(str(seed))


def verdict_list(check_doc: dict) -> list:
    return [[v["checker"], v["status"], v.get("n_total")] for v in check_doc["verdicts"]]


class OutputChecker:
    """Judges each command's output; holds the reference for unpinned seeds."""

    def __init__(self, w: Workload, pin, out_dir: Path):
        self.w = w
        self.pin = pin
        self.out_dir = out_dir
        self.reference = pin

    def __call__(self, code: int) -> tuple[int, int, str]:
        """(attempted, failed, note) for the command that just exited."""
        w = self.w
        if w.command == "check":
            return self._check_verdicts(code)
        attempted = w.n_trials
        if code != 0:
            return attempted, attempted, f"exit code {code}"
        try:
            data = (self.out_dir / "report.json").read_bytes()
        except OSError as exc:
            return attempted, attempted, f"no report: {exc}"
        digest = hashlib.sha256(data).hexdigest()
        if self.reference is None:
            self.reference = digest
        if digest != self.reference:
            kind = "golden" if self.pin is not None else "first-run"
            return attempted, attempted, f"report sha256 {digest[:12]} != {kind} pin"
        problem = structural_problem(w, json.loads(data), self.out_dir)
        if problem:
            return attempted, attempted, problem
        return attempted, sum(c["n_fail"] for c in json.loads(data)["cells"]), "ok"

    def _check_verdicts(self, code: int) -> tuple[int, int, str]:
        attempted = len(self.pin)
        if code not in (0, 2):  # 2 reports a failed deterministic check
            return attempted, attempted, f"exit code {code}"
        try:
            got = verdict_list(json.loads((self.out_dir / "check.json").read_text()))
        except (OSError, ValueError, KeyError) as exc:
            return attempted, attempted, f"no verdicts: {exc}"
        failed = sum(1 for i, want in enumerate(self.pin)
                     if i >= len(got) or got[i] != want or got[i][1] != "pass")
        failed += max(0, len(got) - len(self.pin))
        return max(attempted, len(got)), failed, "ok" if failed == 0 else "verdict mismatch"


def structural_problem(w: Workload, doc: dict, out_dir: Path) -> str:
    """Checks that hold for any seed; empty string when the report is sound."""
    cells = doc["cells"]
    want = [(o, T) for o in w.optimizers for T in w.T_grid]
    if [(c["optimizer"], c["T"]) for c in cells] != want:
        return "report cells do not match the config grid"
    for c in cells:
        q = c["quantiles"]
        if c["n_fail"] < w.n_seeds and not (q["0.5"] <= q["0.9"] <= q["1-delta"]):
            return f"quantiles out of order in cell {c['optimizer']} T={c['T']}"
    if sorted(doc["rate_fits"]) != sorted(w.optimizers):
        return "rate fit missing for some optimizer"
    if w.extra.get("write_traces", True):
        n = len(list((out_dir / "traces").glob("*.csv")))
        if n != w.n_trials:
            return f"{n} trace files, expected {w.n_trials}"
    return ""


def provenance(env: dict, workers: int) -> dict:
    probe = ("import json, platform, numpy\n"
             "try:\n"
             "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
             "    blas = f\"{blas.get('name')} {blas.get('version')}\"\n"
             "except Exception:\n"
             "    blas = 'unknown'\n"
             "print(json.dumps({'python': platform.python_version(),\n"
             "                  'numpy': numpy.__version__, 'blas': blas}))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    info = json.loads(out.stdout) if out.returncode == 0 else {}
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if res.returncode == 0:
            rev = res.stdout.strip()
    return {"nproc": nproc(), "workers": workers, **info, "git_revision": rev,
            "platform": platform.platform()}


def prepare(w: Workload, seed: int) -> tuple[Path, Path]:
    """Write the seed's config; return (config path, output dir)."""
    base = WORK / w.name
    base.mkdir(parents=True, exist_ok=True)
    out_dir = base / "out"
    cfg_path = base / f"config_seed{seed}.json"
    cfg_path.write_text(json.dumps(w.config(seed, str(out_dir)), indent=2) + "\n")
    return cfg_path, out_dir


def cli_argv(w: Workload, cfg: Path) -> list[str]:
    return [sys.executable, "-m", "signstorm.cli", w.command, str(cfg)]


def setup_once(cfg: Path, env: dict, log: Path) -> float:
    """Spawn-to-exit time of one fresh interpreter doing the set-up."""
    res = spawn([sys.executable, "-c", SETUP_PROBE, str(cfg)], env, log)
    if res.code != 0:
        raise RuntimeError(f"set-up failed (exit {res.code}); see {log}")
    return res.wall_s


def run_command(argv, env, out_dir: Path, log: Path, checker: OutputChecker):
    shutil.rmtree(out_dir, ignore_errors=True)
    res = spawn(argv, env, log)
    attempted, failed, note = checker(res.code)
    if note != "ok":
        sys.stderr.write(f"command failed check: {note}\n{log.read_text()[-2000:]}\n")
    return res, attempted, failed


class Window:
    """The measuring window: starts a repetition only if one more, as long as
    the longest so far, still ends inside it, so a run lasts about
    ``seconds`` whatever a repetition costs."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds
        self.last = time.perf_counter()
        self.longest = 0.0

    def room_for_another(self) -> bool:
        now = time.perf_counter()
        self.longest = max(self.longest, now - self.last)
        self.last = now
        return now + self.longest <= self.end


def end_to_end(w: Workload, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    cfg, out_dir = prepare(w, seed)
    workers = nproc() if w.command == "run" else 1
    env = child_env(workers)
    log = cfg.parent / "stderr.log"
    info = provenance(env, workers)
    checker = OutputChecker(w, pinned(load_golden(), w, seed), out_dir)
    setup_once(cfg, env, log)  # warm-up: bytecode and file caches
    setups, walls, rss = [], [], []
    attempted = failed = 0
    window = Window(seconds)
    while window.room_for_another() or len(walls) < MIN_COMMANDS:
        # set-ups interleave with commands so both sample the same stretch
        # of machine noise across the whole run
        setups.extend(setup_once(cfg, env, log) for _ in range(SETUP_PROBES))
        res, a, f = run_command(cli_argv(w, cfg), env, out_dir, log, checker)
        walls.append(res.wall_s)
        rss.append(res.maxrss_mb)
        attempted += a
        failed += f
    wall = statistics.median(walls)
    metrics = {"wall_s": wall, "steps_per_s": w.steps / wall,
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(rss)}
    info.update(commands=len(walls), wall_samples_s=[round(x, 4) for x in walls],
                golden="pinned" if checker.pin is not None
                else "unpinned seed: checked against the run's first report")
    return metrics, attempted, failed, info


def span_arrays(doc: dict):
    spans = doc["spans"]
    names = np.array([s[0] for s in spans], dtype=object)
    start = np.array([s[1] for s in spans], dtype=np.int64)
    end = np.array([s[2] for s in spans], dtype=np.int64)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    tags = np.array([s[4] for s in spans], dtype=object)
    return names, start, end, parent, tags


def self_times(dur, parent):
    """Each span's duration minus the time its child spans cover."""
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - covered


def layer_metrics(doc: dict, w: Workload, untraced_wall_s: float,
                  pool_util: float, trace_bytes: int) -> tuple[dict, dict]:
    """Per-layer metrics and self-time shares from one traced command."""
    names, start, end, parent, tags = span_arrays(doc)
    dur = (end - start) / 1e9
    own = self_times(dur, parent)
    pname = np.where(parent >= 0, names[np.maximum(parent, 0)], None)

    def sel(name):
        return names == name

    def busy(name):
        return float(dur[sel(name)].sum())

    def calls(name):
        return int(np.count_nonzero(sel(name)))

    def us_per_call(mask):
        n = int(np.count_nonzero(mask))
        return float(dur[mask].sum()) / n * 1e6 if n else 0.0

    step = sel("optim.step")
    step_in_trial = step & (pname == "harness.run_trial")
    step_in_diag = step & (pname == "diagnostics.run_with_diagnostics")
    trial_busy = busy("harness.run_trial")
    m = {
        "optim.step.calls": calls("optim.step"),
        "optim.step.us_per_call": us_per_call(step),
        **{f"optim.step.us_per_call.{k}": us_per_call(step & (tags == k)) for k in ALL_KINDS},
        "optim.step.share": (float(dur[step_in_trial].sum()) / trial_busy
                             if trial_busy else 0.0),
    }
    for oracle in ("exact_grad", "value", "stoch_grad"):
        m[f"problems.{oracle}.calls"] = calls(f"problems.{oracle}")
        m[f"problems.{oracle}.us_per_call"] = us_per_call(sel(f"problems.{oracle}"))
    n_trial_steps = int(np.count_nonzero(step_in_trial))
    n_diag_steps = int(np.count_nonzero(step_in_diag))
    trial_self = float(own[sel("harness.run_trial")].sum())
    diag_self = float(own[sel("diagnostics.run_with_diagnostics")].sum())
    cmd_busy = busy("cli.cmd_run")
    m.update({
        "problems.presample_payloads.busy_s": busy("problems.presample_payloads"),
        "problems.make_problem.calls_per_cell": calls("problems.make_problem") / w.n_cells,
        "problems.verify_assumptions.busy_s": busy("problems.verify_assumptions"),
        "harness.run_trial.calls_per_trial": calls("harness.run_trial") / w.n_trials,
        "harness.run_trial.self_us_per_step": (trial_self / n_trial_steps * 1e6
                                               if n_trial_steps else 0.0),
        "harness.run_experiment.busy_s": busy("harness.run_experiment"),
        "harness.pool_cpu_utilization": pool_util,
        "harness.write_trace_csv.busy_s": busy("harness.write_trace_csv"),
        "harness.write_trace_csv.bytes": trace_bytes,
        "cli.trace_rerun_s": (cmd_busy - busy("harness.run_experiment")
                              - busy("charts.render")) if cmd_busy else 0.0,
        "diagnostics.run_with_diagnostics.busy_s": busy("diagnostics.run_with_diagnostics"),
        "diagnostics.run_with_diagnostics.self_us_per_step": (
            diag_self / n_diag_steps * 1e6 if n_diag_steps else 0.0),
        "diagnostics.representation_check.busy_s": busy("diagnostics.representation_check"),
        "diagnostics.statistical_checks.busy_s": (busy("diagnostics.epsilon_bound_frequency")
                                                  + busy("diagnostics.sign_dichotomy_frequency")),
        "diagnostics.lemma1_montecarlo.busy_s": busy("diagnostics.lemma1_montecarlo"),
        "diagnostics.bytes_held_computed": (
            9 * w.check["T"] * w.problem["params"]["d"] * 8 * w.check["n_seeds"]
            if w.command == "check" else 0),
        "charts.render_s": busy("charts.render"),
        "trace.overhead_ratio": doc["wall_ns"] / 1e9 / untraced_wall_s,
    })
    total = doc["wall_ns"] / 1e9
    shares = {}
    for name in sorted(set(names)):
        shares[name] = float(own[names == name].sum()) / total
    return m, shares


def traced(w: Workload, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    cfg, out_dir = prepare(w, seed)
    workers = nproc() if w.command == "run" else 1
    pooled_env, serial_env = child_env(workers), child_env(1)
    log = cfg.parent / "stderr.log"
    spans_path = cfg.parent / "spans.json"
    info = provenance(pooled_env, workers)
    checker = OutputChecker(w, pinned(load_golden(), w, seed), out_dir)
    tracer = [sys.executable, str(BENCH / "tracer.py"), "--out", str(spans_path)]
    rounds: list[dict] = []
    shares_rounds: list[dict] = []
    attempted = failed = 0
    window = Window(seconds)
    while window.room_for_another() or not rounds:
        pooled, a, f = run_command(cli_argv(w, cfg), pooled_env, out_dir, log, checker)
        attempted, failed = attempted + a, failed + f
        pool_util = pooled.cpu_s / (workers * pooled.wall_s)
        walls = {}
        for flag in ([], ["--trace"]):
            spans_path.unlink(missing_ok=True)
            _, a, f = run_command(tracer + flag + [w.command, str(cfg)], serial_env,
                                  out_dir, log, checker)
            attempted, failed = attempted + a, failed + f
            doc = json.loads(spans_path.read_text())
            walls[bool(flag)] = doc["wall_ns"] / 1e9
        trace_dir = out_dir / "traces"
        trace_bytes = sum(p.stat().st_size for p in trace_dir.glob("*.csv")) \
            if trace_dir.is_dir() else 0
        metrics, shares = layer_metrics(doc, w, walls[False], pool_util, trace_bytes)
        rounds.append(metrics)
        shares_rounds.append(shares)
    metrics = {k: statistics.median(r[k] for r in rounds) for k in PER_LAYER}
    names = sorted({n for s in shares_rounds for n in s})
    info.update(rounds=len(rounds), self_time_share={
        n: statistics.median(s.get(n, 0.0) for s in shares_rounds) for n in names})
    return metrics, attempted, failed, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "signstorm" / "cli.py").is_file():
        print(f"error: no signstorm sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    try:
        metrics, attempted, failed, info = run(w, args.seed, args.seconds)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    print(f"# {w.name} seed={args.seed} trace={args.trace}: {w.why}")
    print("# provenance " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"fail_ratio {failed / attempted!r} 1  ({failed} of {attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
