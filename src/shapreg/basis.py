"""Shapley-basis feature maps and design matrices.

The predictor of a Shapley regression is a k-additive cooperative game; its
Choquet integral can be written either in the Moebius basis, as
sum_T m(T) min_{i in T} x_i, or in the interaction-index parameterization,
as sum_A I(A) phi_A(x).  Both go through one linear map: m = W I, with the
superset map W[C, B] = r_{|B|-|C|} (C <= B, inversion weights r), whose
per-order subset table ``games.k_additive_maps`` builds once per (n, k).
So with the min-term matrix M of the samples, the design is M W, each
column phi_A a weighted sum of the min-terms over the subcoalitions of A,
and the two evaluations agree identically; a plain logistic regression on
the design learns the interaction indices directly.

Up to pairs the basis has the familiar closed forms:

* phi_{i}(x)   = x_i
* phi_{ij}(x)  = min(x_i, x_j) - (x_i + x_j) / 2

so singleton columns are the raw features and pair columns live in [-1/2, 0],
vanishing on the diagonal x_i = x_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .games import indices_of, k_additive_maps, mask_of, transposed_min_terms


def phi(coalition, x) -> float:
    """Basis function phi_A at a single point x in [0,1]^n.

    Weighted sum of min-terms over the subcoalitions of A, with min over the
    empty coalition taken as 0 (the constant is the bias's job): the last
    design column of the point restricted to the members of A.
    """
    x = np.asarray(x, dtype=float)
    mask = coalition if isinstance(coalition, int) else mask_of(coalition)
    if mask == 0:
        raise ValueError("phi is undefined for the empty coalition")
    members = list(indices_of(mask))
    if members[-1] >= x.shape[0]:
        raise ValueError(f"coalition {tuple(members)} exceeds point dimension {x.shape[0]}")
    return float(design_matrix(x[None, members], len(members)).values[0, -1])


@dataclass(frozen=True)
class DesignMatrix:
    """Dense basis evaluation: one row per sample, one column per coalition in
    canonical order."""

    values: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def design_matrix(x: np.ndarray, k: int) -> DesignMatrix:
    """Evaluate every basis function of order <= k on the rows of x.

    x must already be normalized to [0,1]; column j is phi_A for the j-th
    coalition of enumerate_coalitions(n, k).
    """
    # M W for the min-term matrix M, built transposed so that every coalition
    # is one contiguous row; rejects anything but a 2-D sample matrix in [0,1]
    terms_t = transposed_min_terms(x, k)
    maps = k_additive_maps(np.shape(x)[1], k)
    values_t = np.zeros_like(terms_t)
    for block, subsets, depths in maps.orders:
        # each row adds its weighted subset rows in ascending subset position,
        # zero weights skipped: the rounding sequence of a CSR product
        out = values_t[block]
        gathered = np.empty_like(out)
        for j in np.flatnonzero(maps.inversion[depths]):
            # the indices are in range; mode="clip" skips the buffered copy
            # that the default mode="raise" makes of out=
            np.take(terms_t, subsets[:, j], axis=0, out=gathered, mode="clip")
            gathered *= maps.inversion[depths[j]]
            out += gathered
    return DesignMatrix(values=np.ascontiguousarray(values_t.T))


def max_row_norm(design: DesignMatrix) -> float:
    """Largest Euclidean row norm of the design; the Lipschitz scale of the
    per-sample logistic loss in these features."""
    return float(np.sqrt((design.values ** 2).sum(axis=1).max()))
