"""Parameter counting vs effective dimension on pure noise.

Sweeping the additivity order k on noise labels, the parameter count D_k
explodes combinatorially and the unregularized train/test gap follows it,
while the effective dimension of the basis (the stable rank of its second
moment) saturates - and the ridge-regularized gap stays flat alongside it.
This is the capacity story behind preferring small k with l2 regularization.
"""

from shapreg import gap_experiment

exp = gap_experiment(iterations=10, seed=42, jobs=4)

print(f"{'k':>2} {'D_k':>4} {'d_eff':>7} {'gap none':>9} {'gap l2':>7}")
for row in exp.rows():
    print(f"{row['k']:2d} {row['D_k']:4d} {row['d_eff']:7.3f} "
          f"{row['gap_none']:9.3f} {row['gap_l2']:7.3f}")
