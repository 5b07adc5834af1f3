"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy rate-measurement
criteria (6, 7) respect SIGNSTORM_THREADS for their worker pool.
"""

import math
import time

import numpy as np
import pytest

from signstorm import (
    ExperimentSpec,
    HyperParams,
    MdsKind,
    OptimizerKind,
    TheoremInputs,
    TraceRecorder,
    c_rho,
    decomposition_check,
    derive_seed,
    epsilon_bound_frequency,
    g_rho,
    lemma1_montecarlo,
    locate_c_crossover,
    make_rng,
    movement_bound_check,
    noisy_quadratic,
    representation_check,
    run_cell,
    run_experiment,
    run_trial,
    run_with_diagnostics,
    sign_dichotomy_frequency,
    synthetic_logistic,
    bounded_nonconvex,
    theorem_params,
    verify_assumptions,
)

D_RATE = 20
RATE_X0 = np.linspace(0.5, 1.5, D_RATE)
RATE_T_GRID = [1000, 3162, 10000, 31623, 100000]


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _diag_quadratic(d=10, sigma=0.5):
    return noisy_quadratic(d, np.ones(d), np.full(d, sigma),
                           np.linspace(0.8, 1.2, d))


def test_criterion_01_algebraic_identities():
    """STORM decomposition and the error-representation identity, exactly."""
    t0 = time.time()
    problem = _diag_quadratic()
    worst_decomp = 0.0
    worst_repr = 0.0
    for beta1 in (0.0, 0.9, 0.99):
        hp = HyperParams(eta=0.01, beta1=beta1, beta2=0.5)
        for s in range(20):
            run = run_with_diagnostics(problem, hp, 1000,
                                       derive_seed(11, int(beta1 * 100), s))
            dec = decomposition_check(run, tol=1e-12)
            rep = representation_check(run.trace, beta1, tol=1e-6)
            worst_decomp = max(worst_decomp, dec.worst_ratio)
            worst_repr = max(worst_repr, rep.worst_ratio)
    elapsed = time.time() - t0
    ok = worst_decomp <= 1.0 and worst_repr <= 1.0 and elapsed < 10.0
    _report(1, ok, f"decomposition worst {worst_decomp:.3g} of 1e-12 budget, "
                   f"representation worst {worst_repr:.3g} of 1e-6 budget, "
                   f"{elapsed:.1f}s (< 10s)")


def test_criterion_02_movement_bound_almost_sure():
    """Iterate movement never exceeds eta*sqrt(d/(1-beta2)), 100 seeds x 3 beta2."""
    t0 = time.time()
    problem = _diag_quadratic()
    consts = problem.constants
    kind = OptimizerKind.SIGNSTORM
    ratios = []
    for beta2 in (0.0, 0.5, 0.85):
        choice = theorem_params(TheoremInputs(
            delta=consts.delta_upper, L1_norm=consts.L1_norm,
            sigma1_norm=consts.sigma1_norm, T=10_000, beta2=beta2,
            confidence_delta=0.05, d=problem.d))
        seeds = [derive_seed(22, int(beta2 * 100), s) for s in range(100)]
        recorder = TraceRecorder(len(seeds), 10_000)
        run_cell(problem, kind, choice.hp, 10_000, seeds, recorder)
        for s, seed in enumerate(seeds):
            trace = recorder.trace(s, seed, kind, choice.hp)
            ratios.append(movement_bound_check(trace.step_l2, choice.hp,
                                               problem.d).worst_ratio)
    worst = max(ratios)
    elapsed = time.time() - t0
    ok = worst <= 1.0 + 1e-9 and elapsed < 60.0
    _report(2, ok, f"worst ratio {worst:.15f} over {len(ratios)} runs of T=1e4, "
                   f"{elapsed:.1f}s (< 60s)")


def test_criterion_03_sign_degeneracy_bit_level():
    """beta2=0: every applied nonzero update term is exactly eta; |m|/sqrt(v)=1."""
    problem = _diag_quadratic()
    hp = HyperParams(eta=0.0125, beta1=0.9, beta2=0.0)
    run = run_with_diagnostics(problem, hp, 500, seed=33)
    moved = run.m != 0.0
    ratio = np.zeros_like(run.m)
    np.divide(np.abs(run.m), np.sqrt(run.v), out=ratio, where=moved)
    increment = np.zeros_like(run.m)
    np.divide(run.m, np.sqrt(run.v), out=increment, where=moved)
    increment *= hp.eta
    ok = (bool(np.all(ratio[moved] == 1.0))
          and bool(np.all(np.abs(increment[moved]) == hp.eta))
          and bool(np.all(increment[~moved] == 0.0))
          and bool(np.any(moved)))
    _report(3, ok, f"{int(np.sum(moved))} nonzero coordinate updates all exactly "
                   f"eta={hp.eta}, ratio exactly 1")


def test_criterion_04_prefactor_continuity_and_crossover():
    cont = g_rho(0.5) == 3.0 == 6.0 * math.sqrt(0.5 * 0.5)
    found = locate_c_crossover(tol=1e-9)
    near = abs(found - 0.993007) <= 1e-5
    below = c_rho(found + 1e-4) < 0.5 and c_rho(found - 1e-4) == 0.5
    ok = cont and near and below
    _report(4, ok, f"g continuous at 1/2 (exact), crossover {found:.6f} "
                   f"within 1e-5 of 0.993007")


def test_criterion_05_theorem_parameter_arithmetic():
    choice = theorem_params(TheoremInputs(1.0, 1.0, 1.0, 1000, 0.0, 0.05, 1))
    noiseless = theorem_params(TheoremInputs(1.0, 1.0, 0.0, 1000, 0.0, 0.05, 1))
    ok = (choice.hp.beta1 == 0.99 and choice.hp.eta == 0.01
          and noiseless.hp.beta1 == 0.0)
    _report(5, ok, f"beta1={choice.hp.beta1!r} eta={choice.hp.eta!r} exactly; "
                   f"sigma=0 gives beta1={noiseless.hp.beta1!r}")


def _rate_spec(sigma, optimizers):
    return ExperimentSpec(
        problem_name="noisy_quadratic",
        problem_params={"d": D_RATE, "hessian_diag": 1.0, "sigma": sigma,
                        "x_init": list(RATE_X0)},
        optimizers=optimizers,
        T_grid=RATE_T_GRID,
        n_seeds=50,
        delta=0.05,
        param_mode="theorem",
        master_seed=2024,
    )


def test_criterion_06_rate_separation():
    """Variance reduction buys a visibly steeper empirical rate than momentum."""
    t0 = time.time()
    spec = _rate_spec(0.5, [OptimizerKind.SIGNSTORM,
                            OptimizerKind.GENERALIZED_SIGN_SGD])
    report = run_experiment(spec)
    storm = report.rate_fits["signstorm"]["slope"]
    signsgd = report.rate_fits["generalized_sign_sgd"]["slope"]
    elapsed = time.time() - t0
    ok = (-0.45 <= storm <= -0.22 and -0.35 <= signsgd <= -0.15
          and (signsgd - storm) >= 0.05 and elapsed < 900.0)
    _report(6, ok, f"slopes: variance-reduced {storm:.3f} in [-0.45,-0.22], "
                   f"momentum {signsgd:.3f} in [-0.35,-0.15], "
                   f"separation {signsgd - storm:.3f} >= 0.05, "
                   f"{elapsed:.0f}s (< 900s)")


def test_criterion_07_noiseless_adaptivity():
    """With sigma = 0 the tuned method speeds up toward the T^(-1/2) regime."""
    t0 = time.time()
    spec = _rate_spec(0.0, [OptimizerKind.SIGNSTORM])
    report = run_experiment(spec)
    slope = report.rate_fits["signstorm"]["slope"]
    elapsed = time.time() - t0
    ok = -0.65 <= slope <= -0.35
    _report(7, ok, f"noiseless slope {slope:.3f} in [-0.65,-0.35], {elapsed:.0f}s")


def test_criterion_08_high_probability_frequencies():
    """Statistical checks stay under their stated failure budgets."""
    t0 = time.time()
    delta = 0.05
    problem = _diag_quadratic()
    consts = problem.constants
    choice = theorem_params(TheoremInputs(
        delta=consts.delta_upper, L1_norm=consts.L1_norm,
        sigma1_norm=consts.sigma1_norm, T=300, beta2=0.0,
        confidence_delta=delta, d=problem.d))
    runs = [run_with_diagnostics(problem, choice.hp, 300, derive_seed(88, s))
            for s in range(200)]
    eps_rep = epsilon_bound_frequency([r.trace for r in runs], choice.hp,
                                      consts.L_vec, consts.sigma_vec, delta)
    dich_rep = sign_dichotomy_frequency(runs, consts.L_vec, consts.sigma_vec, delta)
    l1_rep = lemma1_montecarlo(10_000, 1000, delta, MdsKind.RADEMACHER, seed=88)
    elapsed = time.time() - t0
    ok = (eps_rep.violation_fraction <= eps_rep.allowed_fraction
          and dich_rep.violation_fraction <= dich_rep.allowed_fraction
          and l1_rep.violation_fraction <= l1_rep.allowed_fraction
          and elapsed < 300.0)
    _report(8, ok,
            f"violation fractions: eps {eps_rep.violation_fraction:.4f} "
            f"(<= {eps_rep.allowed_fraction:.3f}), dichotomy "
            f"{dich_rep.violation_fraction:.4f} (<= {dich_rep.allowed_fraction:.3f}), "
            f"martingale {l1_rep.violation_fraction:.4f} "
            f"(<= {l1_rep.allowed_fraction:.3f}), {elapsed:.0f}s (< 300s)")


def test_criterion_09_oracle_equivalences_and_fault_injection():
    import dataclasses

    problem = _diag_quadratic()
    hp = HyperParams(eta=0.02, beta1=0.0, beta2=0.4)
    a = run_trial(problem, OptimizerKind.SIGNSTORM, hp, 1000, seed=7)
    b = run_trial(problem, OptimizerKind.GENERALIZED_SIGN_SGD, hp, 1000, seed=7)
    equiv = bool(np.all(np.abs(a.grad_l1 - b.grad_l1)
                        <= 1e-12 * (1 + np.abs(a.grad_l1))))

    bundled = [
        noisy_quadratic(4, np.array([1.0, 2.0, 3.0, 4.0]), 0.5 * np.ones(4),
                        np.ones(4)),
        bounded_nonconvex(4, np.ones(4), 0.3 * np.ones(4), np.ones(4)),
        synthetic_logistic(4, 16, 1.0, np.zeros(4)),
    ]
    all_pass = all(verify_assumptions(p, 3000, make_rng(900 + i)).all_passed
                   for i, p in enumerate(bundled))

    mutated = noisy_quadratic(4, np.ones(4), 0.5 * np.ones(4), np.ones(4))
    mutated.constants = dataclasses.replace(mutated.constants,
                                            L_vec=0.5 * mutated.constants.L_vec)
    fault_rep = verify_assumptions(mutated, 10_000, make_rng(901))
    fault_detected = not fault_rep.smoothness.passed

    ok = equiv and all_pass and fault_detected
    _report(9, ok, f"beta1=0 traces match to 1e-12: {equiv}; three bundled "
                   f"problems verified: {all_pass}; halved-L mutation caught "
                   f"with ratio {fault_rep.smoothness.worst_ratio:.2f}: {fault_detected}")


def test_criterion_10_reproducibility_across_workers():
    spec = ExperimentSpec(
        problem_name="noisy_quadratic",
        problem_params={"d": 6, "hessian_diag": 1.0, "sigma": 0.4, "x_init": 1.0},
        optimizers=[OptimizerKind.SIGNSTORM, OptimizerKind.ADAM],
        T_grid=[100, 200, 400],
        n_seeds=5,
        delta=0.1,
        param_mode="theorem",
        master_seed=314159,
    )
    solo = run_experiment(spec, max_workers=1).to_json().encode()
    pooled = run_experiment(spec, max_workers=8).to_json().encode()
    ok = solo == pooled
    _report(10, ok, f"report JSON byte-identical across worker counts 1 and 8 "
                    f"({len(solo)} bytes)")
