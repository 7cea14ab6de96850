"""Parameter counting vs effective dimension on pure noise.

Sweeping the additivity order k on noise labels, the parameter count D_k
explodes combinatorially and the unregularized train/test gap follows it,
while the effective dimension of the basis (the stable rank of its second
moment) saturates - and the ridge-regularized gap stays flat alongside it.
This is the capacity story behind preferring small k with l2 regularization.
"""

from shapreg import bound_report, gap_experiment

exp = gap_experiment(n=8, big_n=1000, k_range=range(1, 9), iterations=10, seed=42,
                     lam=1.0, jobs=4)

print(f"{'k':>2} {'D_k':>4} {'d_eff':>7} {'gap none':>9} {'gap l2':>7}")
for row in exp.rows():
    print(f"{row['k']:2d} {row['D_k']:4d} {row['d_eff']:7.3f} "
          f"{row['gap_none']:9.3f} {row['gap_l2']:7.3f}")

print("\nplug-in bound values (B = 1, L = max design-row norm of the protocol):")
rows = bound_report(exp, norm_bound=1.0, lipschitz=2.6)
print(f"{'k':>2} {'vc':>7} {'rademacher':>11} {'stability':>10}")
for row in rows:
    print(f"{row['k']:2d} {row['vc']:7.3f} {row['rademacher']:11.3f} {row['stability']:10.4f}")
