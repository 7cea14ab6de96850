"""Independent reference for the Choquet integral of a Moebius-basis game.

The library evaluates sum_T m(T) min_{i in T} x_i through its min-term
matrix.  This reference shares none of that code: it takes the game's values
on the full subset lattice from ``capacity_from_mobius`` and integrates by
sorting the point, C(x) = sum_i (x_(i) - x_(i-1)) v({j : x_j >= x_(i)}).
"""

import numpy as np

from shapreg.games import capacity_from_mobius


def capacity_lattice(m):
    """Game values v(A) of a Moebius-basis set function, indexed by bit-mask A."""
    capacity = capacity_from_mobius(m)
    lattice = np.zeros(1 << m.n)
    lattice[np.fromiter(capacity.coalitions(), dtype=np.int64)] = capacity.values
    return lattice


def choquet_sorted(lattice, x):
    """Choquet integral of one point x in [0,1]^n against lattice values."""
    total, below = 0.0, 0.0
    upper = (1 << len(x)) - 1  # features whose value is >= the current level
    for i in np.argsort(x, kind="stable"):
        total += (x[i] - below) * lattice[upper]
        below = x[i]
        upper ^= 1 << int(i)
    return total
