"""Dataset container, CSV ingestion, synthetic generators, undersampling."""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)


class DataError(ValueError):
    """Raised when an input file or dataset violates the expected format."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with binary labels and provenance metadata."""

    x: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    name: str = "dataset"
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=int)
        if x.ndim != 2:
            raise DataError(f"feature matrix must be 2-D, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise DataError(f"labels have shape {y.shape}, expected ({x.shape[0]},)")
        if x.shape[1] != len(self.feature_names):
            raise DataError("feature_names length does not match the matrix width")
        if not np.all(np.isfinite(x)):
            raise DataError("feature matrix contains NaN or infinite entries")
        if not np.all((y == 0) | (y == 1)):
            raise DataError("labels must be binary 0/1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    def class_counts(self) -> tuple[int, int]:
        """(negatives, positives)."""
        pos = int(self.y.sum())
        return self.n_samples - pos, pos

    def subset(self, rows: np.ndarray, name_suffix: str = "") -> "Dataset":
        return Dataset(
            x=self.x[rows],
            y=self.y[rows],
            feature_names=list(self.feature_names),
            name=self.name + name_suffix,
            provenance=dict(self.provenance),
        )


_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "?"}


def _parse_cell(token: str, row: int, column: str) -> float:
    if token.strip().lower() in _MISSING_TOKENS:
        raise DataError(f"missing value at data row {row}, column '{column}'")
    try:
        value = float(token)
    except ValueError:
        raise DataError(
            f"non-numeric cell '{token}' at data row {row}, column '{column}'"
        ) from None
    if not np.isfinite(value):
        raise DataError(f"non-finite value '{token}' at data row {row}, column '{column}'")
    return value


def _read_table(path, delimiter: str, drop_column: str | None, drop_missing: bool,
                keep_dropped: bool = True):
    """Parse a headered CSV of numbers: the one reader behind
    :func:`load_csv` and :func:`load_feature_matrix`.

    ``drop_column``, when given, must be in the header; its tokens are split
    off unparsed.  Every other cell must be a finite number.  Blank lines are
    skipped.  A row with the wrong field count aborts, and so does a missing,
    non-numeric or non-finite cell unless ``drop_missing`` drops its row; the
    error names the data row and column.  Returns (feature names, matrix,
    stripped tokens of ``drop_column`` or None, dropped row count).

    Without ``keep_dropped`` the tokens are not returned, and the rows are
    first parsed in bulk (:func:`_bulk_parse`); a file that parse does not
    accept is read again below, so its errors still name the row and column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        drop = None
        if drop_column is not None:
            if drop_column not in header:
                raise DataError(f"{path}: label column '{drop_column}' not in header {header}")
            drop = header.index(drop_column)
        names = [h for i, h in enumerate(header) if i != drop]
        if not keep_dropped:
            x = _bulk_parse(fh, delimiter, len(header), drop)
            if x is not None:
                return names, x, None, 0
            fh.seek(0)
            next(reader)
        records = list(reader)
    row_numbers = range(1, len(records) + 1)
    if set(map(len, records)) - {len(header)}:  # blank lines or ragged rows
        for r, record in enumerate(records, start=1):
            if record and len(record) != len(header):
                raise DataError(f"{path}: data row {r} has {len(record)} fields, expected {len(header)}")
        row_numbers = [r for r, record in enumerate(records, start=1) if record]
        records = [record for record in records if record]
    if not records:
        raise DataError(f"{path}: no data rows")
    tokens = None if drop is None else [record.pop(drop).strip() for record in records]

    # one bulk conversion (numpy parses a str cell exactly as float() does);
    # only a file with a bad cell is rescanned, to name that cell or drop rows
    try:
        x = np.array(records, dtype=float)
        clean = bool(np.isfinite(x).all())
    except ValueError:
        clean = False
    if clean:
        return names, x, tokens, 0
    kept, rows = [], []
    for i, (r, record) in enumerate(zip(row_numbers, records)):
        try:
            rows.append([_parse_cell(tok, r, name) for tok, name in zip(record, names)])
        except DataError:
            if not drop_missing:
                raise
            continue
        kept.append(i)
    if not rows:
        raise DataError(f"{path}: no usable data rows")
    if tokens is not None:
        tokens = [tokens[i] for i in kept]
    return names, np.array(rows, dtype=float), tokens, len(records) - len(kept)


def _bulk_parse(fh, delimiter: str, width: int, drop: int | None) -> np.ndarray | None:
    """The rows left in ``fh``, parsed by numpy's C reader, without column
    ``drop``; None unless every row has ``width`` fields and every kept cell
    is a finite number.

    numpy parses a number exactly as float() does and rejects what float()
    rejects or what the csv reader would read otherwise (a quoted cell, a
    '#', a missing cell or a ragged row); it skips blank lines as the csv
    reader does.  Column ``drop`` goes through a converter that discards
    it, not ``usecols``, which would let a row with extra fields pass.
    """
    converters = None if drop is None else {drop: lambda token: 0.0}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a file without rows
            x = np.loadtxt(fh, delimiter=delimiter, comments=None, ndmin=2,
                           converters=converters)
    except (TypeError, ValueError, Warning):  # TypeError: a delimiter numpy refuses
        return None
    if x.shape[0] == 0 or x.shape[1] != width or not np.isfinite(x).all():
        return None
    return x if drop is None else np.delete(x, drop, axis=1)


def load_csv(
    path,
    label_column: str,
    positive_class: str | None = None,
    delimiter: str = ",",
    drop_missing: bool = False,
    name: str | None = None,
) -> Dataset:
    """Load a headered CSV into a Dataset.

    Every non-label column must parse as a number.  Labels are taken verbatim
    from ``label_column``: numeric 0/1 when ``positive_class`` is None, else 1
    where the raw token equals ``positive_class`` and 0 elsewhere.  Missing
    values abort with the offending row/column named, unless ``drop_missing``
    removes those rows (count logged).
    """
    feature_names, x, raw_labels, dropped = _read_table(path, delimiter, label_column, drop_missing)
    if dropped:
        logger.info("%s: dropped %d rows with missing values", path, dropped)

    if positive_class is not None:
        y = np.array([1 if lab == positive_class else 0 for lab in raw_labels])
        if not np.any(y):
            raise DataError(f"{path}: positive class '{positive_class}' never occurs")
    else:
        try:
            numeric = np.array([float(lab) for lab in raw_labels])
        except ValueError:
            raise DataError(
                f"{path}: labels are not numeric; pass positive_class to binarize"
            ) from None
        if not np.all(np.isin(numeric, (0.0, 1.0))):
            bad = sorted(set(numeric) - {0.0, 1.0})
            raise DataError(f"{path}: non-binary labels {bad}; pass positive_class")
        y = numeric.astype(int)

    return Dataset(
        x=x,
        y=y,
        feature_names=feature_names,
        name=name or str(path),
        provenance={"source": str(path), "label_column": label_column,
                    "positive_class": positive_class, "dropped_rows": dropped},
    )


def load_feature_matrix(path, delimiter: str = ",", drop_column: str | None = None) -> np.ndarray:
    """Feature matrix of a headered CSV, for prediction.  Cells are parsed and
    checked as :func:`load_csv` parses features; ``drop_column`` (a label
    column, say) is dropped without interpreting its values."""
    return _read_table(path, delimiter, drop_column, drop_missing=False, keep_dropped=False)[1]


def gen_random_noise(n: int = 10, big_n: int = 100, seed: int = 0) -> Dataset:
    """Pure-noise classification data: X ~ U[0,1]^n, labels fair coin flips.

    There is nothing to learn; the data exists to measure model capacity and
    stability rather than accuracy.
    """
    if n < 1 or big_n < 1:
        raise ValueError("n and N must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(big_n, n))
    y = rng.integers(0, 2, size=big_n)
    return Dataset(
        x=x, y=y,
        feature_names=[f"x{i}" for i in range(n)],
        name="random_noise",
        provenance={"generator": "random-noise", "seed": seed, "n": n, "N": big_n},
    )


def gen_pure_pairwise(
    n: int = 15, big_n: int = 1000, pairs: int = 5, seed: int = 0
) -> Dataset:
    """Planted pairwise-interaction data.

    The log-odds are a sum of centered products w_p * (x_i x_j - 1/4) over
    ``pairs`` randomly chosen feature pairs, with |w_p| uniform in [1, 2] and
    random sign.  Labels split the samples at the median log-odds, so the
    class balance is exactly N//2 positives.  The planted pairs and weights
    are recorded in provenance.
    """
    max_pairs = n * (n - 1) // 2
    if not 1 <= pairs <= max_pairs:
        raise ValueError(f"pairs must be in [1, {max_pairs}] for n={n}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(big_n, n))

    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = rng.choice(len(all_pairs), size=pairs, replace=False)
    signs = rng.choice([-1.0, 1.0], size=pairs)
    magnitudes = rng.uniform(1.0, 2.0, size=pairs)
    weights = signs * magnitudes

    logits = np.zeros(big_n)
    planted = []
    for p, w in zip(chosen, weights):
        i, j = all_pairs[p]
        logits += w * (x[:, i] * x[:, j] - 0.25)
        planted.append([i, j, float(w)])

    # top half by log-odds is positive; stable argsort makes ties deterministic
    y = np.zeros(big_n, dtype=int)
    order = np.argsort(logits, kind="stable")
    y[order[big_n - big_n // 2:]] = 1

    return Dataset(
        x=x, y=y,
        feature_names=[f"x{i}" for i in range(n)],
        name="pure_pairwise",
        provenance={"generator": "pure-pairwise", "seed": seed, "n": n,
                    "N": big_n, "pairs": planted},
    )


def undersample(dataset: Dataset, ratio: float, seed: int = 0) -> Dataset:
    """Randomly subsample the majority class to minority/majority = ratio.

    The minority class is untouched.  If the dataset already satisfies the
    ratio the input is returned unchanged (logged).  Row order is preserved.
    """
    if not 0 < ratio <= 1:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    neg, pos = dataset.class_counts()
    minority_label = 1 if pos <= neg else 0
    n_min = min(pos, neg)
    n_maj = max(pos, neg)
    if n_maj == 0 or n_min / n_maj >= ratio:
        logger.info("%s: already at ratio %.3f, undersample is a no-op", dataset.name, ratio)
        return dataset
    target_majority = int(n_min / ratio)
    rng = np.random.default_rng(seed)
    majority_rows = np.flatnonzero(dataset.y != minority_label)
    keep_majority = rng.choice(majority_rows, size=target_majority, replace=False)
    keep = np.zeros(dataset.n_samples, dtype=bool)
    keep[dataset.y == minority_label] = True
    keep[keep_majority] = True
    out = dataset.subset(np.flatnonzero(keep), name_suffix="_undersampled")
    out.provenance.update({"undersample_ratio": ratio, "undersample_seed": seed})
    return out
