"""Fitted Shapley regression models: normalization, prediction, serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .games import Basis, SetFunction, k_additive_maps, num_coalitions, transposed_min_terms


# Rows per block of ShapleyModel.logit_normalized.  The BLAS matrix-vector
# kernels round the last N mod 4 columns of a product, and a product of
# fewer than 4 columns, their own way; blocks of a multiple of 4 rows with a
# last block of at least 4 give the logits of one product over all rows to
# the bit, when the BLAS runs one thread (a threaded BLAS splits that one
# product at row counts of its own).
LOGIT_BLOCK = 512


@np.errstate(over="ignore")  # as a decorator it costs less per call than a with block
def expit(z) -> np.ndarray:
    """Logistic sigmoid 1 / (1 + exp(-z)), elementwise.

    Exactly 0, without an overflow warning, where exp(-z) overflows (z below
    about -709.78); it rounds to exactly 1 for z above about 37.
    """
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


def apply_normalization(x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Map inputs through per-feature (min, max) bounds, clipping to [0,1].

    Features with min == max (constant on the data the bounds came from) map
    to 0.
    """
    lo, hi = bounds[:, 0], bounds[:, 1]
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    out = (np.asarray(x, dtype=float) - lo) / safe
    out[:, span == 0] = 0.0
    return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class ShapleyModel:
    """Bias plus interaction indices of order <= k, with the min-max
    normalization learned at fit time.

    ``indices`` is aligned with the canonical coalition order; the logit of a
    point is bias + sum_A I(A) phi_A(x_normalized).  Prediction evaluates the
    same game through its Moebius coefficients ``mobius``, derived from the
    indices at construction: bias + sum_T m(T) min_{i in T} x_i.
    """

    feature_names: list[str]
    k: int
    bias: float
    indices: np.ndarray = field(repr=False)
    normalization: np.ndarray = field(repr=False)  # shape (n, 2): per-feature (min, max)
    mobius: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=float)
        norm = np.asarray(self.normalization, dtype=float)
        n = len(self.feature_names)
        if idx.shape != (num_coalitions(n, self.k),):
            raise ValueError(
                f"expected {num_coalitions(n, self.k)} indices for (n={n}, k={self.k}), "
                f"got shape {idx.shape}"
            )
        if norm.shape != (n, 2):
            raise ValueError(f"normalization must have shape ({n}, 2), got {norm.shape}")
        if np.any(norm[:, 0] > norm[:, 1]):
            raise ValueError("normalization requires min <= max per feature")
        mobius = k_additive_maps(n, self.k).to_mobius(idx)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "normalization", norm)
        object.__setattr__(self, "mobius", mobius)
        for arr in (idx, norm, mobius):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.feature_names)

    def index_set_function(self) -> SetFunction:
        return SetFunction(n=self.n, k=self.k, basis=Basis.SHAPLEY, values=self.indices)

    def normalize(self, x_raw: np.ndarray) -> np.ndarray:
        """Map raw inputs through the stored min-max bounds (see apply_normalization).

        Raw inputs must be finite: clipping would map +-inf into the box and
        score it."""
        x = np.atleast_2d(np.asarray(x_raw, dtype=float))
        if x.shape[1] != self.n:
            raise ValueError(f"model has {self.n} features, input has {x.shape[1]}")
        if not np.isfinite(x).all():
            raise ValueError("inputs must be finite")
        return apply_normalization(x, self.normalization)

    def logit_normalized(self, x_norm: np.ndarray) -> np.ndarray:
        """Logits for inputs already in [0,1]^n (skips normalization).

        Rows are scored LOGIT_BLOCK at a time through one reused (D, block)
        min-term buffer, so memory beyond the input and the logits is
        O(D * LOGIT_BLOCK) at any row count.  Every row is checked once; a
        row outside the box raises before any logit is returned.
        """
        x = np.atleast_2d(x_norm)
        if x.ndim != 2 or x.shape[1] != self.n:
            raise ValueError(f"model has {self.n} features, input has shape {x.shape}")
        n_rows, size = x.shape[0], self.mobius.size
        logits = np.empty(n_rows)
        buffer = np.empty(size * min(n_rows, LOGIT_BLOCK + 3))
        start = 0
        while start < n_rows:
            # a last block of 1-3 rows joins the one before it (see LOGIT_BLOCK)
            stop = n_rows if n_rows - start < LOGIT_BLOCK + 4 else start + LOGIT_BLOCK
            terms_t = buffer[:size * (stop - start)].reshape(size, stop - start)
            transposed_min_terms(x[start:stop], self.k, out=terms_t)
            np.matmul(self.mobius, terms_t, out=logits[start:stop])
            start = stop
        logits += self.bias
        return logits

    def logit(self, x_raw: np.ndarray) -> np.ndarray:
        return self.logit_normalized(self.normalize(x_raw))

    def predict_proba(self, x_raw: np.ndarray) -> np.ndarray:
        """P(y=1) per row, in [0, 1]: expit rounds to exactly 1 for logits
        above about 37 and is exactly 0 below about -709.78."""
        return expit(self.logit(x_raw))

    def predict(self, x_raw: np.ndarray) -> np.ndarray:
        """Labels at threshold 0.5; a probability of exactly 0.5 is positive."""
        return (self.predict_proba(x_raw) >= 0.5).astype(int)

    def to_json(self) -> str:
        # json round-trips Python floats through repr, which is bit-exact
        payload = {
            "n": self.n,
            "k": self.k,
            "bias": self.bias,
            "feature_names": list(self.feature_names),
            "normalization": [[float(lo), float(hi)] for lo, hi in self.normalization],
            "indices": [float(v) for v in self.indices],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ShapleyModel":
        payload = json.loads(text)
        model = cls(
            feature_names=[str(s) for s in payload["feature_names"]],
            k=int(payload["k"]),
            bias=float(payload["bias"]),
            indices=np.asarray(payload["indices"], dtype=float),
            normalization=np.asarray(payload["normalization"], dtype=float),
        )
        if model.n != int(payload["n"]):
            raise ValueError("inconsistent feature count in model file")
        return model

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ShapleyModel":
        with open(path) as fh:
            return cls.from_json(fh.read())
