"""Running the lemma-level checkers against live trajectories.

The deterministic checkers must pass on every run: the movement bound
||x_{t+1}-x_t||_2 <= eta sqrt(d/(1-beta2)), the geometric-sum
representation of the estimator error eps_t = m_t - grad F(x_t), the
estimator split, and the ratio cap |m|/sqrt(v) <= 1/sqrt(1-beta2).  The
probability-bearing statements (the eps_t envelope, the sign dichotomy,
and the martingale partial-sum envelope) are measured as violation
frequencies over seeds.  Every checker reads one seed's record.
run_with_diagnostics yields a seed's whole record, as the single run
below reads it.  check_in_blocks, the path `signstorm check` takes, gives
check_seed_by_seed's results on those records while holding only a block
of steps of each chunk of seeds: it runs the checkers that are local in t
on every block as the engine fills it and merges the results, and keeps
the first REPRESENTATION_STEPS steps for the representation check.

Run:  python demos/04_lemma_diagnostics.py
"""

import numpy as np

from signstorm import (
    HyperParams,
    MdsKind,
    check_in_blocks,
    decomposition_check,
    estimator_ratio_check,
    lemma1_montecarlo,
    movement_bound_check,
    noisy_quadratic,
    representation_check,
    run_with_diagnostics,
)

d = 8
problem = noisy_quadratic(d, np.ones(d), 0.4 * np.ones(d), np.linspace(0.6, 1.4, d))
hp = HyperParams(eta=0.01, beta1=0.95, beta2=0.5)

print("deterministic checks on a single run (T=2000):")
record = next(run_with_diagnostics(problem, hp, 2000, [42]))
for result in (movement_bound_check(record.step_l2, hp, d),
               representation_check(record.xi, record.eps, record.z, hp.beta1),
               decomposition_check(record),
               estimator_ratio_check(record)):
    print(f"  {result.name:22s} worst ratio {result.worst_ratio:10.3e}  "
          f"passed={result.passed}")

print("\nfrequency checks over 50 seeds (delta = 0.05):")
# each block of steps is checked against its rows of the envelope
results = check_in_blocks(problem, hp, 300, list(range(50)), 0.05)
for rep in (results["epsilon_bound"], results["sign_dichotomy"]):
    print(f"  {rep.name:22s} violations {rep.n_violations}/{rep.n_total} "
          f"(allowed fraction {rep.allowed_fraction:.3f})")

print("\nmartingale partial-sum envelope, 5000 simulated sequences:")
for kind in (MdsKind.RADEMACHER, MdsKind.BOUNDED_UNIFORM):
    rep = lemma1_montecarlo(5000, 500, 0.05, kind, seed=1)
    print(f"  {kind.value:16s} escapes {rep.n_violations}/{rep.n_total} "
          f"(allowed fraction {rep.allowed_fraction:.3f})")
