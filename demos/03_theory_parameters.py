"""Horizon-tuned parameter choices and the reference convergence bound.

Given (delta, ||L||_1, ||sigma||_1, T), the tuned choice sets
beta1 = 1 - min{1, (delta ||L||_1 / (||sigma||_1^2 T))^(2/3)} and
eta = (1-beta1)^(1/4) sqrt((1-beta2) delta) / sqrt(||L||_1 T).  With zero
noise the formulas collapse to beta1 = 0 and the bound tightens from the
T^(-1/3) regime to T^(-1/2) -- the choice adapts to the noise level.

Run:  python demos/03_theory_parameters.py
"""

import numpy as np

from signstorm import (
    RHO_CROSSOVER,
    TheoremInputs,
    c_rho,
    g_rho,
    locate_c_crossover,
    practical_params,
    theorem_bound,
    theorem_params,
)

print("tuned choices across horizons (delta=1, ||L||_1=1, ||sigma||_1=1):")
for T in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
    inp = TheoremInputs(delta=1.0, L1_norm=1.0, sigma1_norm=1.0, T=T,
                        beta2=0.0, confidence_delta=0.05, d=10)
    hp = theorem_params(inp)
    bound = theorem_bound(inp, hp.rho)
    print(f"  T={T:>8d}: beta1={hp.beta1:.6f}  eta={hp.eta:.2e}  "
          f"bound reference={bound:.3f}")

print("\nnoise adaptivity (same constants, sigma -> 0):")
for sigma1 in (1.0, 0.1, 0.0):
    inp = TheoremInputs(delta=1.0, L1_norm=1.0, sigma1_norm=sigma1, T=10 ** 5,
                        beta2=0.0, confidence_delta=0.05, d=10)
    hp = theorem_params(inp)
    print(f"  ||sigma||_1={sigma1:4.1f}: beta1={hp.beta1:.4f}  "
          f"bound reference={theorem_bound(inp, hp.rho):.4f}")

print("\nthe practical schedule needs no problem constants:")
hp = practical_params(alpha=1.0, beta=1.0, T=1000)
print(f"  alpha=1, beta=1, T=1000: beta1={hp.beta1}, eta={hp.eta:.5f}")
per_step = practical_params(alpha=1.0, beta=1.0, T=1000, per_step=True)
print(f"  per-step variant: eta_t at t=4 is {per_step.step_size(4):.5f}, "
      f"at t=16 is {per_step.step_size(16):.5f}")

print("\nprefactor landscape:")
for rho in (0.0, 0.5, 0.9, 0.99, 0.999):
    print(f"  rho={rho:5.3f}: g={g_rho(rho):.4f}  c={c_rho(rho):.4f}")
print(f"  c(rho) stays at 1/2 until rho = {locate_c_crossover():.6f} "
      f"(closed form {RHO_CROSSOVER:.6f})")
