"""Shapley-basis feature maps and design matrices.

The predictor of a Shapley regression is a k-additive cooperative game; its
Choquet integral can be written either in the Moebius basis, as
sum_T m(T) min_{i in T} x_i, or in the interaction-index parameterization,
as sum_A I(A) phi_A(x).  Both go through one linear map: m = W I, with the
sparse superset map W[C, B] = r_{|B|-|C|} (C <= B, inversion weights r) that
``games.k_additive_maps`` builds once per (n, k).  So with the min-term
matrix M of the samples, the design is M W, each column phi_A a weighted sum
of the min-terms over the subcoalitions of A, and the two evaluations agree
identically; a plain logistic regression on the design learns the
interaction indices directly.

Up to pairs the basis has the familiar closed forms:

* phi_{i}(x)   = x_i
* phi_{ij}(x)  = min(x_i, x_j) - (x_i + x_j) / 2

so singleton columns are the raw features and pair columns live in [-1/2, 0],
vanishing on the diagonal x_i = x_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .games import enumerate_coalitions, indices_of, k_additive_maps, mask_of, min_terms, num_coalitions


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
    column_coalitions: list[int]
    n: int
    k: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def design_matrix(x: np.ndarray, k: int) -> DesignMatrix:
    """Evaluate every basis function of order <= k on the rows of x.

    x must already be normalized to [0,1]; column j is phi_A for the j-th
    coalition of enumerate_coalitions(n, k).
    """
    terms = min_terms(x, k)  # rejects anything but a 2-D sample matrix in [0,1]
    n = np.shape(x)[1]
    # dense @ sparse comes back column-major; keep designs row-major like the samples
    values = np.ascontiguousarray(terms @ k_additive_maps(n, k).to_mobius)
    return DesignMatrix(values=values, column_coalitions=enumerate_coalitions(n, k), n=n, k=k)


def max_row_norm(design: DesignMatrix) -> float:
    """Largest Euclidean row norm of the design; the Lipschitz scale of the
    per-sample logistic loss in these features."""
    return float(np.sqrt((design.values ** 2).sum(axis=1).max()))


def basis_dimension(n: int, k: int) -> int:
    """Number of basis columns (= parameters beside the bias)."""
    return num_coalitions(n, k)
