"""Binary-classification metrics with fixed tie and degeneracy conventions."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np


@dataclass(frozen=True)
class MetricSet:
    """Threshold metrics at 0.5 plus ranking metrics.

    balanced_accuracy is exactly (sensitivity + specificity) / 2, f1 is the
    harmonic mean of precision and sensitivity (0 when both vanish).  roc_auc
    and pr_auc are None when undefined (single-class truth) rather than 0.
    """

    accuracy: float
    balanced_accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    f1: float
    roc_auc: float | None
    pr_auc: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def roc_auc(y_true: np.ndarray, y_score: np.ndarray) -> float | None:
    """Area under the ROC curve, trapezoidal over all score thresholds.

    Tie groups contribute diagonal segments, which the rank formulation below
    accounts for exactly.  None when only one class is present.
    """
    from scipy.stats import rankdata  # deferred: scipy.stats costs ~40 MB and ~0.8 s at import

    y_true = np.asarray(y_true)
    pos = int(y_true.sum())
    neg = y_true.size - pos
    if pos == 0 or neg == 0:
        return None
    ranks = rankdata(np.asarray(y_score, dtype=float))
    rank_sum = ranks[y_true == 1].sum()
    return float((rank_sum - pos * (pos + 1) / 2) / (pos * neg))


def pr_auc(y_true: np.ndarray, y_score: np.ndarray) -> float | None:
    """Average precision: the step-wise integral of precision over recall.

    None when there are no positives.
    """
    y_true = np.asarray(y_true)
    pos = int(y_true.sum())
    if pos == 0:
        return None
    scores = np.asarray(y_score, dtype=float)
    order = np.argsort(-scores, kind="stable")
    y_sorted = y_true[order]
    s_sorted = scores[order]
    tp = np.cumsum(y_sorted)
    predicted = np.arange(1, y_true.size + 1)
    # evaluate only at the last element of each tie group
    boundary = np.append(s_sorted[1:] != s_sorted[:-1], True)
    tp_b = tp[boundary]
    prec_b = tp_b / predicted[boundary]
    recall_b = tp_b / pos
    recall_prev = np.concatenate([[0.0], recall_b[:-1]])
    return float(np.sum((recall_b - recall_prev) * prec_b))


def metrics(y_true, y_pred, y_score) -> MetricSet:
    """Full metric set from truth, hard predictions, and scores in [0, 1]."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    y_score = np.asarray(y_score, dtype=float)
    if not (y_true.shape == y_pred.shape == y_score.shape):
        raise ValueError("y_true, y_pred, y_score must have equal lengths")
    if np.any((y_score < 0) | (y_score > 1)):
        raise ValueError("scores must lie in [0, 1]")

    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))

    sensitivity = _safe_div(tp, tp + fn)
    specificity = _safe_div(tn, tn + fp)
    precision = _safe_div(tp, tp + fp)
    f1 = _safe_div(2 * precision * sensitivity, precision + sensitivity)

    return MetricSet(
        accuracy=(tp + tn) / y_true.size,
        balanced_accuracy=(sensitivity + specificity) / 2,
        sensitivity=sensitivity,
        specificity=specificity,
        precision=precision,
        f1=f1,
        roc_auc=roc_auc(y_true, y_score),
        pr_auc=pr_auc(y_true, y_score),
    )
