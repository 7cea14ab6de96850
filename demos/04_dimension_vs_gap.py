"""Parameter counting vs effective dimension on pure noise.

Sweeping the additivity order k on noise labels, the parameter count D_k
explodes combinatorially and the unregularized train/test gap follows it,
while the effective dimension of the basis (the stable rank of its second
moment) saturates - and the ridge-regularized gap stays flat alongside it.
This is the capacity story behind preferring small k with l2 regularization.
The plug-in bound curves beside the gaps read every input from the same
experiment: each order's stability ceiling 2 L^2 / (lam N) takes L, the
largest row norm of that order's training designs, from it.
"""

from shapreg import bound_report, gap_experiment

exp = gap_experiment(iterations=10, seed=42, jobs=4)

print(f"{'k':>2} {'D_k':>4} {'d_eff':>7} {'gap none':>9} {'gap l2':>7}")
for row in exp.rows():
    print(f"{row['k']:2d} {row['D_k']:4d} {row['d_eff']:7.3f} "
          f"{row['gap_none']:9.3f} {row['gap_l2']:7.3f}")

# each order's L is the largest row norm of its training designs, which the
# gap experiment measured, as `shapreg bounds` reads it
print("\nplug-in bound values (B = 1; L per order, the max design-row norm "
      "of the training halves):")
print(f"{'k':>2} {'vc':>7} {'rademacher':>11} {'L':>7} {'stability':>10}")
for row in bound_report(exp):
    print(f"{row['k']:2d} {row['vc']:7.3f} {row['rademacher']:11.3f} {row['L']:7.4f} "
          f"{row['stability']:10.4f}")
