"""Set functions over feature coalitions and the transforms between their bases.

A coalition is a subset of the feature universe {0, ..., n-1}, encoded as an
integer bit-mask (bit i set <=> feature i in the coalition).  A set function
assigns one real value to every non-empty coalition of size <= k; the empty
coalition is never stored (its value is zero by convention and, in a model,
is absorbed by the bias term).

Three bases are supported:

* ``capacity`` -- raw game values v(A), stored for every non-empty subset.
* ``mobius``   -- Moebius coefficients m(A); k-additivity means m(A) = 0
  for |A| > k, so only the low-order entries exist.
* ``shapley``  -- interaction indices I(A).  Singletons are Shapley values,
  pairs measure synergy (> 0) or redundancy (< 0).

The canonical coalition order is size-major: singletons ascending, then pairs
in lexicographic order, then triples, and so on.  All vectors in this package
are aligned to that order.

The Moebius <-> Shapley transforms, the min-term matrix behind every Choquet
evaluation and the design matrices that basis.py hands out all read one
subset table, kept only here and cached per (n, k): see :class:`KAdditiveMaps`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

# Largest allocation, in bytes, of a structure exponential in (n, k): the
# coalition list, the subset table, a fit's dense Newton system (train.py).
MAX_ALLOCATION_BYTES = 1 << 30
# Full-lattice transforms hold 2^n values (8 MiB at n = 20) and enumerate
# every coalition in Python; larger universes fail before allocating.
MAX_LATTICE_N = 20


class Basis(str, Enum):
    CAPACITY = "capacity"
    MOBIUS = "mobius"
    SHAPLEY = "shapley"


def mask_of(indices) -> int:
    """Bit-mask of an iterable of feature indices."""
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    """Sorted feature indices contained in a bit-mask."""
    out = []
    i = 0
    while mask >> i:
        if (mask >> i) & 1:
            out.append(i)
        i += 1
    return tuple(out)


def num_coalitions(n: int, k: int) -> int:
    """Number of non-empty coalitions of size <= k, sum_{j=1..k} C(n, j);
    raises ValueError for a universe this module cannot hold."""
    if n < 1:
        raise ValueError(f"universe size must be >= 1, got n={n}")
    if k < 1:
        raise ValueError(f"additivity order must be >= 1, got k={k}")
    if k > n:
        raise ValueError(f"additivity order k={k} exceeds universe size n={n}")
    d = sum(comb(n, j) for j in range(1, k + 1))
    # enumerate_coalitions and _coalition_positions hold a Python int with a
    # list and a dict slot per coalition: 120 bytes at peak on 64-bit CPython
    check_allocation(n, k, "coalition list", 120 * d)
    return d


def check_allocation(n: int, k: int, what: str, nbytes: int) -> None:
    """Raise ValueError if ``what``, for order k on n features, would take
    more than MAX_ALLOCATION_BYTES."""
    if nbytes > MAX_ALLOCATION_BYTES:
        d = sum(comb(n, j) for j in range(1, k + 1))
        raise ValueError(f"order k={k} on n={n} features (D={d:,} coalitions): the {what} "
                         f"needs {nbytes:,} bytes, over the {MAX_ALLOCATION_BYTES:,}-byte budget")


def enumerate_coalitions(n: int, k: int) -> list[int]:
    """All non-empty coalition masks with size <= k, in canonical order.

    Canonical order is size-major, lexicographic within a size: {0}, {1}, ...,
    {n-1}, {0,1}, {0,2}, ..., {n-2,n-1}, {0,1,2}, ...
    """
    num_coalitions(n, k)  # checks the universe
    masks = []
    for size in range(1, k + 1):
        for combo in combinations(range(n), size):
            masks.append(mask_of(combo))
    return masks


@lru_cache(maxsize=32)
def _coalition_positions(n: int, k: int) -> dict[int, int]:
    """Mapping mask -> position in the canonical order of enumerate_coalitions,
    cached and shared by every caller, so read it and never change it."""
    return {m: i for i, m in enumerate(enumerate_coalitions(n, k))}


@dataclass(frozen=True)
class SetFunction:
    """A real-valued set function on coalitions of size <= k, in a fixed basis.

    ``values`` is aligned with ``enumerate_coalitions(n, k)``.  A cooperative
    game is a SetFunction in the capacity basis; no monotonicity or
    normalization is enforced anywhere.
    """

    n: int
    k: int
    basis: Basis
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)  # a copy: the caller's stays writeable
        if vals.ndim != 1 or vals.shape[0] != num_coalitions(self.n, self.k):
            raise ValueError(
                f"expected {num_coalitions(self.n, self.k)} values for "
                f"(n={self.n}, k={self.k}), got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("set function values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "basis", Basis(self.basis))
        vals.setflags(write=False)

    def coalitions(self) -> list[int]:
        return enumerate_coalitions(self.n, self.k)

    def value(self, coalition) -> float:
        """Value of one coalition, given as an iterable of indices or a mask."""
        mask = coalition if isinstance(coalition, int) else mask_of(coalition)
        if mask == 0:
            return 0.0
        idx = _coalition_positions(self.n, self.k).get(mask)
        if idx is None:
            raise KeyError(f"coalition {indices_of(mask)} not stored (size > k?)")
        return float(self.values[idx])


def _require_basis(sf: SetFunction, basis: Basis, op: str) -> None:
    if sf.basis is not basis:
        raise ValueError(f"{op} expects a {basis.value}-basis set function, got {sf.basis.value}")


def _lattice_transform(sf: SetFunction, sign: float, basis: Basis) -> SetFunction:
    """Full-order game in ``basis`` from the in-place subset-lattice transform
    of sf (zero above order sf.k): bit by bit, each mask A holding the bit gets
    f(A) += sign * f(A minus the bit), the subset sums for sign 1 and their
    inverse for -1 (a + (-1.0 * b) is a - b to the bit)."""
    n = sf.n
    if n > MAX_LATTICE_N:
        raise ValueError(f"full-lattice transform on n={n} features needs 2^{n} values; "
                         f"capped at n={MAX_LATTICE_N}")
    coalitions = np.fromiter(enumerate_coalitions(n, n), dtype=np.int64)
    f = np.zeros(1 << n)
    f[coalitions[: sf.values.size]] = sf.values  # size-major: orders <= k come first
    masks = np.arange(1 << n)
    for i in range(n):
        bit = 1 << i
        has = (masks & bit) != 0
        f[has] += sign * f[masks[has] ^ bit]
    return SetFunction(n=n, k=n, basis=basis, values=f[coalitions])


def mobius_from_capacity(mu: SetFunction) -> SetFunction:
    """Moebius coefficients of a full-order game: m(A) = sum_{B<=A} (-1)^{|A\\B|} v(B).

    Computed with the in-place subset-lattice transform, one bit at a time;
    exact inverse of :func:`capacity_from_mobius`.
    """
    _require_basis(mu, Basis.CAPACITY, "mobius_from_capacity")
    if mu.k != mu.n:
        raise ValueError("mobius_from_capacity needs a full-order game (k = n)")
    return _lattice_transform(mu, -1.0, Basis.MOBIUS)


def capacity_from_mobius(m: SetFunction) -> SetFunction:
    """Game values from Moebius coefficients: v(A) = sum_{B<=A} m(B).

    Always returns a full-order game; a k-additive input is implicitly padded
    with zeros above order k.
    """
    _require_basis(m, Basis.MOBIUS, "capacity_from_mobius")
    return _lattice_transform(m, 1.0, Basis.CAPACITY)


def shapley_from_mobius(m: SetFunction) -> SetFunction:
    """Interaction indices from Moebius coefficients.

    I(A) = sum over supersets B >= A (|B| <= k) of m(B) / (|B| - |A| + 1).
    Consequences used throughout: I(A) = m(A) at the top order |A| = k, and
    the singleton indices sum to v(F) = sum_T m(T) (efficiency).
    """
    _require_basis(m, Basis.MOBIUS, "shapley_from_mobius")
    values = k_additive_maps(m.n, m.k).to_shapley(m.values)
    return SetFunction(n=m.n, k=m.k, basis=Basis.SHAPLEY, values=values)


def interaction_inversion_weights(max_order: int) -> np.ndarray:
    """Weights r_d inverting the superset-averaging map of shapley_from_mobius.

    Defined by r_0 = 1 and sum_{d=0..e} C(e,d) r_d / (e-d+1) = 0 for e >= 1,
    so that m(A) = sum_{B >= A} r_{|B|-|A|} I(B) exactly.  (These are the
    Bernoulli numbers: 1, -1/2, 1/6, 0, -1/30, ...)  The recurrence runs in
    exact rationals, so each weight is the double nearest its true value and
    every odd weight from r_3 on is exactly 0.
    """
    r = [Fraction(1)]
    for e in range(1, max_order + 1):
        r.append(-sum(comb(e, d) * r[d] / (e - d + 1) for d in range(e)))
    return np.array([float(v) for v in r])


def mobius_from_shapley(index_fn: SetFunction) -> SetFunction:
    """Moebius coefficients from interaction indices (inverse of shapley_from_mobius).

    m(A) = sum over supersets B >= A of r_{|B|-|A|} I(B) with the inversion
    weights r; for k <= 2 this is the closed form m({i,j}) = I({i,j}) and
    m({i}) = I({i}) - 1/2 sum_j I({i,j}).
    """
    _require_basis(index_fn, Basis.SHAPLEY, "mobius_from_shapley")
    values = k_additive_maps(index_fn.n, index_fn.k).to_mobius(index_fn.values)
    return SetFunction(n=index_fn.n, k=index_fn.k, basis=Basis.MOBIUS, values=values)


@dataclass(frozen=True)
class KAdditiveMaps:
    """The k-additive structure on n features, built once per (n, k).

    ``orders`` holds, for each order a = 1..k, the canonical-order slice of
    the order-a coalitions, their subset table and its column depths.  Row B
    of the table holds the canonical positions of B's 2^a - 1 non-empty
    subsets C, ascending, so it starts with B's members (columns 0..a-1, the
    top member at a - 1), has the parent, B minus its top member, at column
    2^a - a - 2, and ends with B itself.  A column's depth |B| - |C| is the
    same for every row of an order.

    The table is the superset map W[C, B] = w_{|B|-|C|} over non-empty
    C <= B under either weighting: the inversion weights r_d
    (``inversion``), so m = W I (:meth:`to_mobius`) and the design is M W
    (:meth:`design`), or the averaging weights 1 / (d + 1) (``averaging``),
    so I = W m (:meth:`to_shapley`).
    """

    orders: tuple[tuple[slice, np.ndarray, np.ndarray], ...] = field(repr=False)
    inversion: np.ndarray = field(repr=False)
    averaging: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.orders[-1][0].stop

    def to_mobius(self, indices: np.ndarray) -> np.ndarray:
        """Moebius coefficients of interaction indices: W I with weights r."""
        return self._apply(self.inversion, indices)

    def to_shapley(self, mobius: np.ndarray) -> np.ndarray:
        """Interaction indices of Moebius coefficients: W m with weights 1 / (d + 1)."""
        return self._apply(self.averaging, mobius)

    def _apply(self, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
        # bincount adds each bin's terms from 0 in input order, here ascending
        # B, zero weights skipped: the rounding of a CSR matrix-vector product
        values = np.asarray(values, dtype=float)
        subsets, terms = [], []
        for block, table, depths in self.orders:
            kept = weights[depths] != 0.0
            subsets.append(table[:, kept].ravel())
            terms.append((values[block, None] * weights[depths[kept]]).ravel())
        return np.bincount(np.concatenate(subsets), weights=np.concatenate(terms),
                           minlength=self.size)

    def min_terms(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, of shape (D, N), with the transposed min-terms of the
        N rows of x and return it; x is a float (N, n) array in [0,1]^n, which
        is not checked (:func:`transposed_min_terms` checks it).

        Each order comes from the one below by peeling the top member,
        min over T = min(min over T minus top(T), x_top(T)), both read from
        T's row of the subset table and written straight into ``out``; the
        rows gathered are contiguous."""
        n = self.orders[0][0].stop
        out[:n] = x.T
        for a, (block, table, _) in enumerate(self.orders[1:], start=2):
            np.minimum(out[table[:, (1 << a) - a - 2]], out[table[:, a - 1]], out=out[block])
        return out

    def design(self, terms_t: np.ndarray) -> np.ndarray:
        """The design M W of some rows, from their transposed min-term matrix
        (:func:`transposed_min_terms`): one C-contiguous row per sample,
        column B the r-weighted sum of the min-terms over the subsets of B."""
        values_t = np.zeros_like(terms_t)
        for block, subsets, depths in self.orders:
            # each row adds its weighted subset rows in ascending subset position,
            # zero weights skipped: the rounding sequence of a CSR product
            out = values_t[block]
            gathered = np.empty_like(out)
            for j in np.flatnonzero(self.inversion[depths]):
                # the indices are in range; mode="clip" skips the buffered copy
                # that the default mode="raise" makes of out=
                np.take(terms_t, subsets[:, j], axis=0, out=gathered, mode="clip")
                gathered *= self.inversion[depths[j]]
                out += gathered
        return np.ascontiguousarray(values_t.T)


@lru_cache(maxsize=32)
def k_additive_maps(n: int, k: int) -> KAdditiveMaps:
    """Build (or fetch from the cache) the k-additive structure on n features.

    Size-major lexicographic order lists the order-a coalitions parent by
    parent, each parent P followed by P | {j} for j = top(P)+1, ..., n-1, so
    every order is generated from the one below without masks or lookups.
    A table over MAX_ALLOCATION_BYTES fails before anything is allocated.
    """
    check_allocation(n, k, "k-additive subset table",
                     8 * sum(comb(n, a) * ((1 << a) - 1) for a in range(1, k + 1)))
    size = num_coalitions(n, k)
    top = np.empty(size, dtype=np.int64)  # highest member of each coalition
    first_child = np.empty(size, dtype=np.int64)  # position of C | {top(C) + 1}
    top[:n] = np.arange(n)
    # positions of the non-empty subsets of each coalition in the current
    # order, and their sizes (the same for every coalition of one order)
    subsets = np.arange(n)[:, None]
    sizes = np.ones(1, dtype=np.int64)
    orders = [(slice(0, n), subsets, np.zeros(1, dtype=np.int64))]
    lo, hi = 0, n
    for a in range(2, k + 1):
        children = n - 1 - top[lo:hi]
        parent = np.repeat(np.arange(lo, hi), children)
        first = np.cumsum(children) - children
        first_child[lo:hi] = hi + first
        block = slice(hi, hi + parent.size)
        top[block] = top[parent] + 1 + np.arange(parent.size) - first[parent - lo]
        # subsets of P | {t}: those of P, then {t}, then S | {t} for each S <= P
        inherited = subsets[parent - lo]
        t = top[block][:, None]
        subsets = np.hstack([inherited, t, first_child[inherited] + t - top[inherited] - 1])
        sizes = np.concatenate([sizes, [1], sizes + 1])
        # canonical order ranks the subsets of a coalition by the ranks of
        # their members within it, so one permutation sorts every row; the
        # table is stored by column, the unit the min-terms and designs gather
        ascending = np.argsort(subsets[0])
        orders.append((block, np.asfortranarray(subsets[:, ascending]), a - sizes[ascending]))
        lo, hi = block.start, block.stop
    inversion, averaging = interaction_inversion_weights(k), 1.0 / np.arange(1, k + 1)
    for arr in (inversion, averaging, *(a for _, *pair in orders for a in pair)):
        arr.setflags(write=False)
    return KAdditiveMaps(orders=tuple(orders), inversion=inversion, averaging=averaging)


def transposed_min_terms(x, k: int) -> np.ndarray:
    """Transposed min-term matrix M_t[T] = min_{i in T} x[:, i] for every
    coalition T of size <= k, in canonical order, one C-contiguous row per
    coalition; rows of x are points of [0,1]^n, checked by
    :func:`check_unit_box` (see :meth:`KAdditiveMaps.min_terms`).
    """
    x = check_unit_box(x)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D sample matrix, got shape {x.shape}")
    maps = k_additive_maps(x.shape[1], k)
    return maps.min_terms(x, np.empty((maps.size, x.shape[0])))


def truncate_k_additive(m: SetFunction, k: int) -> SetFunction:
    """Drop Moebius coefficients of order > k; lower orders are untouched.

    Size-major canonical order makes this a prefix slice.  Idempotent, and the
    identity when k >= the stored order.
    """
    _require_basis(m, Basis.MOBIUS, "truncate_k_additive")
    if k < 1:
        raise ValueError(f"additivity order must be >= 1, got k={k}")
    if k >= m.k:
        return m
    return SetFunction(n=m.n, k=k, basis=Basis.MOBIUS,
                       values=m.values[: num_coalitions(m.n, k)].copy())


def check_unit_box(x: np.ndarray) -> np.ndarray:
    """x as a float array, clipped to [0,1]; a value further than 1e-12
    outside it, or NaN, raises."""
    x = np.asarray(x, dtype=float)
    if x.size:
        lo, hi = x.min(), x.max()  # NaN if x holds one
        # written so that NaN, which fails every comparison, fails the check
        if not (lo >= -1e-12 and hi <= 1 + 1e-12):
            raise ValueError("inputs must be finite and lie in [0,1]; normalize upstream")
        if lo < 0.0 or hi > 1.0:
            x = np.clip(x, 0.0, 1.0)
    return x


def choquet_mobius(m: SetFunction, x) -> float:
    """Choquet integral of x in [0,1]^n via Moebius coefficients:
    sum_T m(T) * min_{i in T} x_i.
    """
    _require_basis(m, Basis.MOBIUS, "choquet_mobius")
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n,):
        raise ValueError(f"expected a point in R^{m.n}, got shape {x.shape}")
    return float(m.values @ transposed_min_terms(x[None, :], m.k)[:, 0])
