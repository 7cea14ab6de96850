"""How regularization buys stable coefficients.

On pure-noise data there is nothing to learn, so any movement of the fitted
parameters under a single flipped label is pure instability.  Sweeping the
reciprocal regularization strength C = 1/lambda shows the refit shift growing
monotonically with C, while the change in empirical risk stays under the
2 L^2 / (lambda N) stability ceiling in the strongly regularized regime.
Because the model is parameterized directly by its interaction indices, the
same numbers bound how much any single explanation can move.
"""

import numpy as np

from shapreg import FitConfig, gen_random_noise, sensitivity_to_label_flip

ds = gen_random_noise(n=10, big_n=100, seed=123)

print(f"{'C':>6} {'lambda':>8} {'median shift':>13} {'max per-index':>14} "
      f"{'risk diff':>10} {'ceiling':>9}")
for c in (0.01, 0.1, 0.5, 1.0, 1.5, 3.0):
    study = sensitivity_to_label_flip(
        ds, 2, FitConfig(penalty="l2", lam=1.0 / c), repeats=20, seed=7
    )
    print(f"{c:6.2f} {1/c:8.2f} {study.median_shift:13.4f} "
          f"{study.max_index_shifts.max():14.4f} "
          f"{study.risk_diffs.max():10.5f} {study.stability_ceiling:9.4f}")

print("\nEvery per-index shift is bounded by the full-vector shift:")
study = sensitivity_to_label_flip(ds, 2, FitConfig(penalty="l2", lam=1.0), repeats=20, seed=7)
print("  max over trials of (per-index / vector) =",
      round(float((study.max_index_shifts / study.shifts).max()), 4))
