"""Parameter counting vs effective dimension on pure noise.

Sweeping the additivity order k on noise labels, the parameter count D_k
explodes combinatorially and the unregularized train/test gap follows it,
while the effective dimension of the basis (the stable rank of its second
moment) saturates - and the ridge-regularized gap stays flat alongside it.
This is the capacity story behind preferring small k with l2 regularization.
"""

from shapreg import (
    FitConfig,
    bound_report,
    gap_experiment,
    gen_random_noise,
    sensitivity_to_label_flip,
)

exp = gap_experiment(iterations=10, seed=42, jobs=4)

print(f"{'k':>2} {'D_k':>4} {'d_eff':>7} {'gap none':>9} {'gap l2':>7}")
for row in exp.rows():
    print(f"{row['k']:2d} {row['D_k']:4d} {row['d_eff']:7.3f} "
          f"{row['gap_none']:9.3f} {row['gap_l2']:7.3f}")

# L is the largest design-row norm of demo 03's label-flip data, which a
# one-flip study measures, as `shapreg bounds` reads it
flip_data = gen_random_noise(n=10, big_n=100, seed=123)
lipschitz = sensitivity_to_label_flip(flip_data, 2, FitConfig(), repeats=1).row_norm

print(f"\nplug-in bound values (B = 1, L = {lipschitz:.4f}, the max design-row norm "
      f"of the label-flip data):")
rows = bound_report(exp, norm_bound=1.0, lipschitz=lipschitz)
print(f"{'k':>2} {'vc':>7} {'rademacher':>11} {'stability':>10}")
for row in rows:
    print(f"{row['k']:2d} {row['vc']:7.3f} {row['rademacher']:11.3f} {row['stability']:10.4f}")
