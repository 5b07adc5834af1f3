"""Workload definitions: each one turns a seed into a CLI config file.

Every workload is a closed loop: the benchmark starts one `signstorm`
command, waits for it to exit, and only then starts the next.  The program
receives nothing but the generated config; the seed picks the experiment's
``master_seed`` (and, for the finite-sum problem, its dataset).
"""

from __future__ import annotations

from dataclasses import dataclass, field

ALL_KINDS = ["signstorm", "sgd", "momentum_sgd", "generalized_sign_sgd",
             "storm", "adam", "l2_normalized_storm"]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # "run" or "check"
    why: str                     # one line; mirrored in BENCHMARK.json
    problem: dict
    optimizers: list = field(default_factory=list)
    T_grid: list = field(default_factory=list)
    n_seeds: int = 1
    extra: dict = field(default_factory=dict)
    check: dict = field(default_factory=dict)

    def config(self, seed: int, output_dir: str) -> dict:
        """The config JSON handed to the CLI for this seed."""
        problem = {"name": self.problem["name"], "params": dict(self.problem["params"])}
        if problem["name"] == "synthetic_logistic":
            problem["params"]["data_seed"] = seed
        cfg = {
            "problem": problem,
            "optimizers": list(self.optimizers),
            "param_mode": "theorem",
            "T_grid": list(self.T_grid),
            "n_seeds": self.n_seeds,
            "delta": 0.05,
            "master_seed": seed,
            "output_dir": output_dir,
            **self.extra,
        }
        if self.check:
            cfg["check"] = dict(self.check)
        return cfg

    @property
    def n_trials(self) -> int:
        return len(self.optimizers) * len(self.T_grid) * self.n_seeds

    @property
    def n_cells(self) -> int:
        return len(self.optimizers) * len(self.T_grid)

    @property
    def steps(self) -> int:
        """Optimizer iterations the config asks for, each trial counted once."""
        if self.command == "check":
            return self.check["n_seeds"] * self.check["T"]
        return len(self.optimizers) * sum(self.T_grid) * self.n_seeds


WORKLOADS = {w.name: w for w in [
    # Presampled additive noise makes the oracle nearly free, so optim.step
    # and the run_trial loop take almost all of the time, and the pool
    # fan-out runs at nproc workers.  Seed batching and a single trajectory
    # engine would show here.  Eight geometric horizons keep the largest
    # cell a small share of the grid, so the pool's tail stays short.
    Workload(
        name="rate_grid",
        command="run",
        why="signstorm run on the d=20 noisy quadratic: optim.step and the "
            "run_trial loop dominate, pool at nproc workers, no traces",
        problem={"name": "noisy_quadratic",
                 "params": {"d": 20, "hessian_diag": 1.0, "sigma": 0.5,
                            "x_init": [0.5 + i / 19 for i in range(20)]}},
        optimizers=["signstorm", "generalized_sign_sgd"],
        T_grid=[500, 673, 906, 1219, 1641, 2209, 2973, 4000],
        n_seeds=6,
        extra={"write_traces": False},
    ),
    # The finite-sum oracle dominates, cmd_run re-runs every trial serially
    # to write traces, and the CSV and chart writers run.  optim.step is a
    # minor share, so a kernel-only speed-up should barely move this one.
    # The only workload that steps every baseline kind.
    Workload(
        name="logistic_traced",
        command="run",
        why="signstorm run on synthetic_logistic d=200: finite-sum oracle, "
            "serial trace re-run, CSV and chart writers, all seven kinds",
        problem={"name": "synthetic_logistic",
                 "params": {"d": 200, "n_samples": 256, "feature_bound": 1.0,
                            "x_init": 0.0}},
        optimizers=ALL_KINDS,
        T_grid=[100, 200, 400],
        n_seeds=2,
        extra={"diagnostics": True, "write_traces": True},
    ),
    # Never touches the experiment path.  Holds full (T, d) diagnostic
    # arrays per seed; time goes to the O(T^2 d) representation check,
    # run_with_diagnostics and the assumption verifier.
    Workload(
        name="check_suite",
        command="check",
        why="signstorm check on bounded_nonconvex d=10: lemma diagnostics "
            "on full (T, d) arrays, assumption verifier, no experiment",
        problem={"name": "bounded_nonconvex",
                 "params": {"d": 10, "sigma": 0.5, "x_init": 1.0}},
        # the config schema requires an experiment grid; `check` ignores it
        optimizers=["signstorm"],
        T_grid=[2000],
        n_seeds=1,
        check={"T": 2000, "n_seeds": 6, "n_probes": 2000,
               "lemma1_trials": 10000, "lemma1_T": 1000},
    ),
]}
