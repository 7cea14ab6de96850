"""Shapley-basis feature maps and design matrices.

The predictor of a Shapley regression is a k-additive cooperative game; its
Choquet integral can be written either in the Moebius basis, as
sum_T m(T) min_{i in T} x_i, or in the interaction-index parameterization,
as sum_A I(A) phi_A(x).  Both go through one linear map: m = W I, with the
superset map W[C, B] = r_{|B|-|C|} (C <= B, inversion weights r).  So with
the min-term matrix M of the samples, the design is M W, each column phi_A
a weighted sum of the min-terms over the subcoalitions of A, and the two
evaluations agree identically; a plain logistic regression on the design
learns the interaction indices directly.  Both M and the product M W come
from ``games``, which keeps W's subset table, built once per (n, k).

Up to pairs the basis has the familiar closed forms:

* phi_{i}(x)   = x_i
* phi_{ij}(x)  = min(x_i, x_j) - (x_i + x_j) / 2

so singleton columns are the raw features and pair columns live in [-1/2, 0],
vanishing on the diagonal x_i = x_j.  The largest row norm of a design, the
L of the stability ceiling, is measured by the label-flip study in analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .games import k_additive_maps, transposed_min_terms


@dataclass(frozen=True)
class DesignMatrix:
    """Dense basis evaluation: one row per sample, one column per coalition in
    canonical order."""

    values: np.ndarray = field(repr=False)


def design_matrix(x: np.ndarray, k: int) -> DesignMatrix:
    """Evaluate every basis function of order <= k on the rows of x.

    x must already be normalized to [0,1]; column j is phi_A for the j-th
    coalition of enumerate_coalitions(n, k).
    """
    # rejects anything but a 2-D sample matrix in [0,1]
    terms_t = transposed_min_terms(x, k)
    return DesignMatrix(values=k_additive_maps(np.shape(x)[1], k).design(terms_t))
