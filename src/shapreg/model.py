"""Fitted Shapley regression models: min-max normalization (learned from
training rows and applied to any rows), prediction, serialization."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .games import Basis, SetFunction, check_unit_box, k_additive_maps, num_coalitions


# Rows per block of ShapleyModel's scoring loop, a multiple of 4.  The
# BLAS matrix-vector kernels round the last N mod 4 columns of a product
# their own way, and numpy takes a dot product for a one-column product;
# padding every block product to a multiple of 4 columns sends every row
# through the same body kernel, so a row's logit does not depend on the rows
# scored with it.
LOGIT_BLOCK = 512


@np.errstate(over="ignore")  # as a decorator it costs less per call than a with block
def expit(z) -> np.ndarray:
    """Logistic sigmoid 1 / (1 + exp(-z)), elementwise; np.float64 for a
    scalar z.  Each step allocates its result: on small inputs that is
    cheaper than reusing one array in place, whose ufuncs pay numpy's
    operand-overlap check.

    Exactly 0, without an overflow warning, where exp(-z) overflows (z below
    about -709.78); it rounds to exactly 1 for z above about 37.
    """
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


def learn_normalization(x: np.ndarray) -> np.ndarray:
    """Per-feature (min, max) pairs from training data."""
    x = np.asarray(x, dtype=float)
    return np.column_stack([x.min(axis=0), x.max(axis=0)])


def apply_normalization(x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Map the rows of x through per-feature (min, max) bounds, clipping to
    [0,1], in one new array; x is never written.

    Features with min == max (constant on the data the bounds came from) map
    to 0.
    """
    lo, hi = bounds[:, 0], bounds[:, 1]
    span = hi - lo
    out = np.subtract(x, lo, dtype=float)
    out /= np.where(span > 0, span, 1.0)
    out[:, span == 0] = 0.0
    return np.clip(out, 0.0, 1.0, out=out)


def _list_of(accept):
    return lambda value: type(value) is list and all(map(accept, value))


def _is_number(value) -> bool:  # finite as a float64, and not a bool (JSON's true)
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# the fields of a saved model, each with the kind of JSON value it holds
_PAYLOAD_KINDS = {
    "n": ("an int", lambda value: type(value) is int),
    "k": ("an int", lambda value: type(value) is int),
    "bias": ("a finite number", _is_number),
    "feature_names": ("a list of strings", _list_of(lambda name: type(name) is str)),
    "normalization": ("a list of finite-number lists", _list_of(_list_of(_is_number))),
    "indices": ("a list of finite numbers", _list_of(_is_number)),
}


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
        # copies: the stored arrays are frozen, the caller's are left writeable
        idx = np.array(self.indices, dtype=float)
        norm = np.array(self.normalization, dtype=float)
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
        """Map raw inputs, one row or an (N, n) array, through the stored
        min-max bounds (see apply_normalization).

        Raw inputs must be finite: clipping would map +-inf into the box and
        score it."""
        x = np.atleast_2d(np.asarray(x_raw, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.n:
            raise ValueError(f"model has {self.n} features, input has shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("inputs must be finite")
        return apply_normalization(x, self.normalization)

    def logit_normalized(self, x_norm: np.ndarray) -> np.ndarray:
        """Logits for inputs already in [0,1]^n (skips normalization); the
        whole input is checked once (see games.check_unit_box), and a value
        outside the box raises before any logit is computed."""
        x = np.atleast_2d(x_norm)
        if x.ndim != 2 or x.shape[1] != self.n:
            raise ValueError(f"model has {self.n} features, input has shape {x.shape}")
        return self._logits(check_unit_box(x))

    def logit(self, x_raw: np.ndarray) -> np.ndarray:
        # normalize's output is in the box by construction: not checked again
        return self._logits(self.normalize(x_raw))

    def _logits(self, x: np.ndarray) -> np.ndarray:
        """Logits of the rows of a float (N, n) array in [0,1]^n, unchecked.

        Rows are scored LOGIT_BLOCK at a time through one reused (D, block)
        min-term buffer, so memory beyond the input and the logits is
        O(D * LOGIT_BLOCK) at any row count.  A last block of any other
        size is padded to a multiple of 4 columns (see LOGIT_BLOCK), so a
        row's logit is the same whichever rows share its call.  Pad columns
        are not rows: their logits are dropped.
        """
        maps = k_additive_maps(self.n, self.k)
        n_rows, size = x.shape[0], maps.size
        padded = -(-n_rows // 4) * 4
        logits = np.empty(padded)
        buffer = np.empty(size * min(padded, LOGIT_BLOCK))
        for start in range(0, n_rows, LOGIT_BLOCK):
            rows = x[start:start + LOGIT_BLOCK]
            width = min(padded - start, LOGIT_BLOCK)
            terms_t = buffer[:size * width].reshape(size, width)
            maps.min_terms(rows, terms_t[:, :len(rows)])
            terms_t[:, len(rows):] = 0.0  # pad columns, so that their dropped logits are finite
            np.matmul(self.mobius, terms_t, out=logits[start:start + width])
        logits = logits[:n_rows]
        logits += self.bias
        return logits

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
        """The model ``to_json`` wrote.  Text that is not a JSON object
        holding each of its fields, of its kind, is a ValueError."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"a model is a JSON object, got {type(payload).__name__}")
        for name, (kind, accept) in _PAYLOAD_KINDS.items():
            if not accept(payload.get(name)):  # a missing field reads as null
                raise ValueError(f"model field '{name}' must be {kind}, got {payload.get(name)!r:.60}")
        model = cls(
            feature_names=list(payload["feature_names"]),
            k=payload["k"],
            bias=float(payload["bias"]),
            indices=np.asarray(payload["indices"], dtype=float),
            normalization=np.asarray(payload["normalization"], dtype=float),
        )
        if model.n != payload["n"]:
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
