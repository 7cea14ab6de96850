import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import shapreg
from shapreg.metrics import metrics, pr_auc, roc_auc


def test_perfect_prediction_all_ones():
    y = np.array([0, 1, 1, 0, 1])
    score = np.array([0.1, 0.9, 0.8, 0.2, 0.7])
    m = metrics(y, y, score)
    assert m.accuracy == m.balanced_accuracy == m.sensitivity == m.specificity == 1.0
    assert m.precision == m.f1 == m.roc_auc == m.pr_auc == 1.0


def test_all_negative_prediction():
    y = np.array([1, 0, 1, 0])
    m = metrics(y, np.zeros(4, dtype=int), np.full(4, 0.1))
    assert m.sensitivity == 0.0
    assert m.specificity == 1.0
    assert m.balanced_accuracy == 0.5
    assert m.precision == 0.0
    assert m.f1 == 0.0


def test_hand_confusion_case():
    y_true = np.array([1, 0, 1, 1])
    y_pred = np.array([1, 0, 0, 1])
    m = metrics(y_true, y_pred, np.array([0.9, 0.1, 0.4, 0.8]))
    assert m.sensitivity == pytest.approx(2 / 3)
    assert m.specificity == 1.0
    assert m.precision == 1.0
    assert m.f1 == pytest.approx(0.8)
    assert m.balanced_accuracy == pytest.approx((2 / 3 + 1) / 2)


def test_balanced_accuracy_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        y = rng.integers(0, 2, size=30)
        if len(set(y)) < 2:
            continue
        pred = rng.integers(0, 2, size=30)
        m = metrics(y, pred, rng.uniform(size=30))
        assert m.balanced_accuracy == (m.sensitivity + m.specificity) / 2


def test_roc_extremes():
    y = np.array([0, 0, 1, 1])
    assert roc_auc(y, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
    assert roc_auc(y, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0


def test_single_class_auc_is_absent_not_zero():
    y = np.ones(4, dtype=int)
    m = metrics(y, y, np.full(4, 0.8))
    assert m.roc_auc is None
    assert metrics(1 - y, 1 - y, np.full(4, 0.2)).pr_auc is None


def test_auc_matches_pairwise_count():
    """P(s+ > s-) + P(s+ = s-) / 2 over every positive/negative pair, counted
    exactly; the offline reference for the rank formula."""
    rng = np.random.default_rng(2)
    for levels in (3, 10, None):
        for _ in range(10):
            y = rng.integers(0, 2, size=int(rng.integers(2, 60)))
            if y.min() == y.max():
                continue
            score = rng.uniform(size=y.size)
            if levels is not None:  # quantized scores force ties
                score = np.floor(score * levels) / levels
            diff = score[y == 1][:, None] - score[y == 0][None, :]
            wins, ties = int((diff > 0).sum()), int((diff == 0).sum())
            assert roc_auc(y, score) == pytest.approx((wins + ties / 2) / diff.size, abs=1e-12)


def test_pr_auc_matches_exact_average_precision():
    """Average precision from its definition, in exact fractions: at each
    distinct score t, descending, the recall gained by predicting score >= t
    times the precision there; the offline reference for pr_auc."""
    rng = np.random.default_rng(3)
    for levels in (3, 10, None):
        for _ in range(10):
            y = rng.integers(0, 2, size=int(rng.integers(2, 60)))
            if y.sum() == 0:
                continue
            score = rng.uniform(size=y.size)
            if levels is not None:  # quantized scores force ties
                score = np.floor(score * levels) / levels
            pos = int(y.sum())
            expected, tp_before = Fraction(0), 0
            for t in sorted(set(score.tolist()), reverse=True):
                tp = int(y[score >= t].sum())
                expected += Fraction(tp - tp_before, pos) * Fraction(tp, int((score >= t).sum()))
                tp_before = tp
            assert pr_auc(y, score) == pytest.approx(float(expected), abs=1e-12)


def test_auc_matches_sklearn():
    sk = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(1)
    for trial in range(10):
        y = rng.integers(0, 2, size=50)
        if y.sum() in (0, 50):
            continue
        # quantized scores force ties
        score = np.round(rng.uniform(size=50), 1)
        assert roc_auc(y, score) == pytest.approx(sk.roc_auc_score(y, score), abs=1e-12)
        assert pr_auc(y, score) == pytest.approx(sk.average_precision_score(y, score), abs=1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        metrics([0, 1], [0], [0.5, 0.5])
    with pytest.raises(ValueError):
        metrics([0, 1], [0, 1], [0.5, 1.5])
    with pytest.raises(ValueError):
        metrics([0, 1], [0, 1], [0.5, np.nan])


def test_auc_leaves_scipy_stats_unimported():
    """scipy.stats costs tens of MB and most of a second at import; the AUC
    must not pull it in."""
    code = ("import sys; from shapreg.metrics import roc_auc; "
            "print(roc_auc([0, 1, 1, 0], [0.2, 0.7, 0.2, 0.1]), 'scipy.stats' in sys.modules)")
    src = str(Path(shapreg.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0.875", "False"]
