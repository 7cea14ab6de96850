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
evaluation and (in basis.py) the design matrices all derive from one
structure, built once per (n, k) and cached: see :func:`k_additive_maps`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np
from scipy import sparse

# Full-order operations need 2^n values; the bit-mask convention also assumes
# masks fit comfortably in an int64 when handed to numpy.
MAX_FULL_ORDER_N = 62


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


def coalition_size(mask: int) -> int:
    return int(mask).bit_count()


def num_coalitions(n: int, k: int) -> int:
    """Number of non-empty coalitions of size <= k, sum_{j=1..k} C(n, j)."""
    _check_universe(n, k)
    return sum(comb(n, j) for j in range(1, k + 1))


def _check_universe(n: int, k: int) -> None:
    if n < 1:
        raise ValueError(f"universe size must be >= 1, got n={n}")
    if k < 1:
        raise ValueError(f"additivity order must be >= 1, got k={k}")
    if k > n:
        raise ValueError(f"additivity order k={k} exceeds universe size n={n}")
    if k > 3 and n > MAX_FULL_ORDER_N:
        raise ValueError(
            f"n={n} unsupported for order k={k}; full-order style enumerations "
            f"are capped at n={MAX_FULL_ORDER_N}"
        )


def enumerate_coalitions(n: int, k: int) -> list[int]:
    """All non-empty coalition masks with size <= k, in canonical order.

    Canonical order is size-major, lexicographic within a size: {0}, {1}, ...,
    {n-1}, {0,1}, {0,2}, ..., {n-2,n-1}, {0,1,2}, ...
    """
    _check_universe(n, k)
    masks = []
    for size in range(1, k + 1):
        for combo in combinations(range(n), size):
            masks.append(mask_of(combo))
    return masks


def coalition_index(n: int, k: int) -> dict[int, int]:
    """Mapping mask -> position in the canonical order of enumerate_coalitions."""
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
        _check_universe(self.n, self.k)
        vals = np.asarray(self.values, dtype=float)
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
        idx = coalition_index(self.n, self.k).get(mask)
        if idx is None:
            raise KeyError(f"coalition {indices_of(mask)} not stored (size > k?)")
        return float(self.values[idx])

    def to_json(self) -> str:
        entries = [
            {"coalition": list(indices_of(m)), "value": float(v)}
            for m, v in zip(self.coalitions(), self.values)
        ]
        payload = {
            "n": self.n,
            "k": self.k,
            "basis": self.basis.value,
            "entries": entries,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SetFunction":
        payload = json.loads(text)
        n, k = int(payload["n"]), int(payload["k"])
        index = coalition_index(n, k)
        values = np.full(len(index), np.nan)
        for entry in payload["entries"]:
            mask = mask_of(entry["coalition"])
            if mask not in index:
                raise ValueError(f"unexpected coalition {entry['coalition']}")
            if not np.isnan(values[index[mask]]):
                raise ValueError(f"duplicate coalition {entry['coalition']}")
            values[index[mask]] = float(entry["value"])
        if np.any(np.isnan(values)):
            raise ValueError("missing coalition entries")
        return cls(n=n, k=k, basis=Basis(payload["basis"]), values=values)


def _require_basis(sf: SetFunction, basis: Basis, op: str) -> None:
    if sf.basis is not basis:
        raise ValueError(f"{op} expects a {basis.value}-basis set function, got {sf.basis.value}")


def _to_lattice(sf: SetFunction) -> np.ndarray:
    """Scatter canonical-order values into a 2^n array indexed by mask."""
    full = np.zeros(1 << sf.n)
    full[np.fromiter(sf.coalitions(), dtype=np.int64)] = sf.values
    return full


def _from_lattice(full: np.ndarray, n: int, k: int, basis: Basis) -> SetFunction:
    masks = np.fromiter(enumerate_coalitions(n, k), dtype=np.int64)
    return SetFunction(n=n, k=k, basis=basis, values=full[masks])


def mobius_from_capacity(mu: SetFunction) -> SetFunction:
    """Moebius coefficients of a full-order game: m(A) = sum_{B<=A} (-1)^{|A\\B|} v(B).

    Computed with the in-place subset-lattice transform, one bit at a time;
    exact inverse of :func:`capacity_from_mobius`.
    """
    _require_basis(mu, Basis.CAPACITY, "mobius_from_capacity")
    if mu.k != mu.n:
        raise ValueError("mobius_from_capacity needs a full-order game (k = n)")
    if mu.n > MAX_FULL_ORDER_N:
        raise ValueError(f"full-order transform capped at n={MAX_FULL_ORDER_N}")
    f = _to_lattice(mu)
    masks = np.arange(1 << mu.n)
    for i in range(mu.n):
        bit = 1 << i
        has = (masks & bit) != 0
        f[has] -= f[masks[has] ^ bit]
    return _from_lattice(f, mu.n, mu.n, Basis.MOBIUS)


def capacity_from_mobius(m: SetFunction) -> SetFunction:
    """Game values from Moebius coefficients: v(A) = sum_{B<=A} m(B).

    Always returns a full-order game; a k-additive input is implicitly padded
    with zeros above order k.
    """
    _require_basis(m, Basis.MOBIUS, "capacity_from_mobius")
    if m.n > MAX_FULL_ORDER_N:
        raise ValueError(f"full-order transform capped at n={MAX_FULL_ORDER_N}")
    lifted = m if m.k == m.n else SetFunction(
        n=m.n, k=m.n, basis=Basis.MOBIUS,
        values=np.concatenate([m.values, np.zeros(num_coalitions(m.n, m.n) - m.values.size)]),
    )
    f = _to_lattice(lifted)
    masks = np.arange(1 << m.n)
    for i in range(m.n):
        bit = 1 << i
        has = (masks & bit) != 0
        f[has] += f[masks[has] ^ bit]
    return _from_lattice(f, m.n, m.n, Basis.CAPACITY)


def shapley_from_mobius(m: SetFunction) -> SetFunction:
    """Interaction indices from Moebius coefficients.

    I(A) = sum over supersets B >= A (|B| <= k) of m(B) / (|B| - |A| + 1).
    Consequences used throughout: I(A) = m(A) at the top order |A| = k, and
    the singleton indices sum to v(F) = sum_T m(T) (efficiency).
    """
    _require_basis(m, Basis.MOBIUS, "shapley_from_mobius")
    values = k_additive_maps(m.n, m.k).to_shapley @ m.values
    return SetFunction(n=m.n, k=m.k, basis=Basis.SHAPLEY, values=values)


def interaction_inversion_weights(max_order: int) -> np.ndarray:
    """Weights r_d inverting the superset-averaging map of shapley_from_mobius.

    Defined by r_0 = 1 and sum_{d=0..e} C(e,d) r_d / (e-d+1) = 0 for e >= 1,
    so that m(A) = sum_{B >= A} r_{|B|-|A|} I(B) exactly.  (These are the
    Bernoulli numbers: 1, -1/2, 1/6, 0, -1/30, ...)
    """
    r = np.zeros(max_order + 1)
    r[0] = 1.0
    for e in range(1, max_order + 1):
        r[e] = -sum(comb(e, d) * r[d] / (e - d + 1) for d in range(e))
    return r


def mobius_from_shapley(index_fn: SetFunction) -> SetFunction:
    """Moebius coefficients from interaction indices (inverse of shapley_from_mobius).

    m(A) = sum over supersets B >= A of r_{|B|-|A|} I(B) with the inversion
    weights r; for k <= 2 this is the closed form m({i,j}) = I({i,j}) and
    m({i}) = I({i}) - 1/2 sum_j I({i,j}).
    """
    _require_basis(index_fn, Basis.SHAPLEY, "mobius_from_shapley")
    values = k_additive_maps(index_fn.n, index_fn.k).to_mobius @ index_fn.values
    return SetFunction(n=index_fn.n, k=index_fn.k, basis=Basis.MOBIUS, values=values)


@dataclass(frozen=True)
class KAdditiveMaps:
    """The k-additive structure on n features, built once per (n, k).

    ``peel`` holds, for each order a >= 2, the canonical-order slice of the
    order-a coalitions, the position of each one's parent (the coalition
    minus its highest member) and that highest member.  ``to_mobius`` and
    ``to_shapley`` are the sparse superset maps W[C, B] = w_{|B|-|C|} over
    non-empty C <= B, with the inversion weights r_d and the averaging
    weights 1 / (d + 1) respectively, so m = to_mobius @ I and
    I = to_shapley @ m.
    """

    peel: tuple[tuple[slice, np.ndarray, np.ndarray], ...]
    to_mobius: sparse.csr_matrix = field(repr=False)
    to_shapley: sparse.csr_matrix = field(repr=False)


@lru_cache(maxsize=32)
def k_additive_maps(n: int, k: int) -> KAdditiveMaps:
    """Build (or fetch from the cache) the k-additive structure on n features.

    Size-major lexicographic order lists the order-a coalitions parent by
    parent, each parent P followed by P | {j} for j = top(P)+1, ..., n-1, so
    every order is generated from the one below without masks or lookups.
    """
    size = num_coalitions(n, k)
    top = np.empty(size, dtype=np.int64)  # highest member of each coalition
    first_child = np.empty(size, dtype=np.int64)  # position of C | {top(C) + 1}
    top[:n] = np.arange(n)
    # positions of the non-empty subsets of each coalition in the current
    # order, and their sizes (the same for every coalition of one order)
    subsets = np.arange(n)[:, None]
    sizes = np.ones(1, dtype=np.int64)
    entries = [(subsets.ravel(), np.arange(n), np.zeros(n, dtype=np.int64))]
    peel = []
    lo, hi = 0, n
    for a in range(2, k + 1):
        children = n - 1 - top[lo:hi]
        parent = np.repeat(np.arange(lo, hi), children)
        first = np.cumsum(children) - children
        first_child[lo:hi] = hi + first
        block = slice(hi, hi + parent.size)
        top[block] = top[parent] + 1 + np.arange(parent.size) - first[parent - lo]
        peel.append((block, parent, top[block]))
        # subsets of P | {t}: those of P, then {t}, then S | {t} for each S <= P
        inherited = subsets[parent - lo]
        t = top[block][:, None]
        subsets = np.hstack([inherited, t, first_child[inherited] + t - top[inherited] - 1])
        sizes = np.concatenate([sizes, [1], sizes + 1])
        entries.append((subsets.ravel(), np.repeat(np.arange(block.start, block.stop), sizes.size),
                        np.tile(a - sizes, parent.size)))
        lo, hi = block.start, block.stop
    sub, sup, depth = (np.concatenate(parts) for parts in zip(*entries))

    def superset_map(weights: np.ndarray) -> sparse.csr_matrix:
        data = weights[depth]
        keep = data != 0.0
        return sparse.csr_matrix((data[keep], (sub[keep], sup[keep])), shape=(size, size))

    for _, parent, members in peel:
        parent.setflags(write=False)
        members.setflags(write=False)
    return KAdditiveMaps(
        peel=tuple(peel),
        to_mobius=superset_map(interaction_inversion_weights(k)),
        to_shapley=superset_map(1.0 / np.arange(1, k + 1)),
    )


def min_terms(x, k: int) -> np.ndarray:
    """Min-term matrix M[:, T] = min_{i in T} x[:, i] for every coalition of
    size <= k, in canonical order; rows of x are points of [0,1]^n.

    Each order comes from the one below by peeling the highest member,
    min over T = min(min over T minus top(T), x_top(T)), written straight
    into one preallocated array.
    """
    x = _check_unit_box(x)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D sample matrix, got shape {x.shape}")
    n = x.shape[1]
    maps = k_additive_maps(n, k)
    out = np.empty((x.shape[0], maps.to_mobius.shape[0]))
    out[:, :n] = x
    for block, parent, members in maps.peel:
        np.minimum(out[:, parent], x[:, members], out=out[:, block])
    return out


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


def _check_unit_box(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x < -1e-12) or np.any(x > 1 + 1e-12):
        raise ValueError("inputs must lie in [0,1]; normalize upstream")
    return np.clip(x, 0.0, 1.0)


def choquet_mobius(m: SetFunction, x) -> float:
    """Choquet integral of x in [0,1]^n via Moebius coefficients:
    sum_T m(T) * min_{i in T} x_i.
    """
    _require_basis(m, Basis.MOBIUS, "choquet_mobius")
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n,):
        raise ValueError(f"expected a point in R^{m.n}, got shape {x.shape}")
    return float(min_terms(x[None, :], m.k)[0] @ m.values)
