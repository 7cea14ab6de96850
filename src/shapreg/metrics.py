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

    Tie groups contribute diagonal segments, so this is the Mann-Whitney
    count: each positive beats the negatives scored below it and half of
    those scored equal, counted exactly per distinct score.  None when only
    one class is present.
    """
    y_true = np.asarray(y_true)
    pos = int(y_true.sum())
    neg = y_true.size - pos
    if pos == 0 or neg == 0:
        return None
    levels, level = np.unique(np.asarray(y_score, dtype=float), return_inverse=True)
    is_pos = y_true == 1
    pos_at = np.bincount(level[is_pos], minlength=levels.size)
    neg_at = np.bincount(level[~is_pos], minlength=levels.size)
    twice_wins = int(pos_at @ (2 * (np.cumsum(neg_at) - neg_at) + neg_at))
    return float(twice_wins / 2 / (pos * neg))


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


def threshold_metrics(y_true, y_pred) -> dict[str, float]:
    """The confusion-count fields of :class:`MetricSet` (every field but the
    two AUCs), from truth and hard predictions."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have equal lengths")

    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))

    sensitivity = _safe_div(tp, tp + fn)
    specificity = _safe_div(tn, tn + fp)
    precision = _safe_div(tp, tp + fp)
    return {
        "accuracy": (tp + tn) / y_true.size,
        "balanced_accuracy": (sensitivity + specificity) / 2,
        "sensitivity": sensitivity,
        "specificity": specificity,
        "precision": precision,
        "f1": _safe_div(2 * precision * sensitivity, precision + sensitivity),
    }


def metrics(y_true, y_pred, y_score) -> MetricSet:
    """Full metric set from truth, hard predictions, and scores in [0, 1]."""
    y_true = np.asarray(y_true, dtype=int)
    y_score = np.asarray(y_score, dtype=float)
    if not (y_true.shape == np.shape(y_pred) == y_score.shape):
        raise ValueError("y_true, y_pred, y_score must have equal lengths")
    if not np.all((y_score >= 0) & (y_score <= 1)):  # NaN fails too
        raise ValueError("scores must lie in [0, 1]")

    return MetricSet(
        **threshold_metrics(y_true, y_pred),
        roc_auc=roc_auc(y_true, y_score),
        pr_auc=pr_auc(y_true, y_score),
    )
