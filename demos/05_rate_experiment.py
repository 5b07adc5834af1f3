"""A small multi-seed rate experiment with quantile curves and fitted slopes.

The headline metric of a trial is min over t of ||grad F(x_t)||_1; "with
probability >= 1 - delta" becomes the empirical (1-delta)-quantile of that
metric over seeds.  Fitting log(median metric) against log(T) exposes the
empirical rate: the variance-reduced method trends toward T^(-1/3) where
plain momentum normalization sits nearer T^(-1/4) (and toward T^(-1/2)
when the noise is switched off).

This demo uses a reduced grid so it finishes in about a minute; the full
desk-scale measurement lives in tests/test_acceptance.py (criteria 6-7).

Run:  python demos/05_rate_experiment.py
"""

import json
import os

import numpy as np

from signstorm import ExperimentSpec, OptimizerKind, run_experiment
from signstorm.charts import CHARTS
from signstorm.harness import write_text

d = 10
spec = ExperimentSpec(
    problem_name="noisy_quadratic",
    problem_params={"d": d, "hessian_diag": 1.0, "sigma": 0.5,
                    "x_init": list(np.linspace(0.5, 1.5, d))},
    optimizers=[OptimizerKind.SIGNSTORM, OptimizerKind.GENERALIZED_SIGN_SGD],
    T_grid=[500, 2000, 8000, 32000],
    n_seeds=12,
    delta=0.1,
    param_mode="theorem",
    master_seed=7,
)

report = run_experiment(spec)

print("median headline metric per cell:")
for cell in report.cells:
    q = cell["quantiles"]
    print(f"  {cell['optimizer']:24s} T={cell['T']:>6d}  "
          f"median={q['0.5']:.4f}  (1-delta)-quantile={q['1-delta']:.4f}")

print("\nfitted log-log slopes:")
for name, fit in report.rate_fits.items():
    print(f"  {name:24s} slope {fit['slope']:+.3f}  (r^2 = {fit['r2']:.4f})")

out_dir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out_dir, exist_ok=True)
text = report.to_json()
write_text(os.path.join(out_dir, "demo_report.json"), text)
doc = json.loads(text)
for name, render in CHARTS.items():
    write_text(os.path.join(out_dir, f"{name}.svg"), render(doc))
print(f"\nreport and SVG charts written to {out_dir}/")
