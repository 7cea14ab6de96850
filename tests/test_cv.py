import dataclasses
import json

import numpy as np
import pytest

from shapreg.cv import (
    INNER_FOLDS,
    OUTER_FOLDS,
    SIGMAS,
    BootstrapResult,
    SweepReport,
    bootstrap_stability,
    default_lambda_grid,
    k_sweep_benchmark,
    nested_cv,
    noise_robustness,
    stratified_folds,
)
from shapreg.data import Dataset, gen_pure_pairwise, gen_random_noise
from shapreg.metrics import metrics
from shapreg.train import FitConfig, fit


def signal_dataset(n=4, big_n=150, seed=0, imbalance=0.5):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(big_n, n))
    logit = 4.0 * (x[:, 0] - 0.5) + 2.0 * np.minimum(x[:, 1], x[:, 2]) - 1.0 \
        + np.log(imbalance / (1 - imbalance))
    y = (rng.uniform(size=big_n) < 1 / (1 + np.exp(-logit))).astype(int)
    return Dataset(x=x, y=y, feature_names=[f"f{i}" for i in range(n)], name="signal")


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------

def test_stratified_folds_balance_within_one():
    rng = np.random.default_rng(1)
    y = (rng.uniform(size=103) < 0.3).astype(int)
    folds = stratified_folds(y, 5, seed=0)
    assert sorted(np.concatenate(folds).tolist()) == list(range(103))
    for label in (0, 1):
        counts = [int((y[f] == label).sum()) for f in folds]
        assert max(counts) - min(counts) <= 1


def test_stratified_folds_rejects_small_class():
    y = np.array([0] * 50 + [1] * 3)
    with pytest.raises(ValueError, match="stratification impossible"):
        stratified_folds(y, 5, seed=0)


@pytest.mark.parametrize("y", [[0, 0, 1, 1, 2, 2], [0, 0, 1, 1, -1, 1], [0.0, 0.5, 1.0, 1.0]])
def test_stratified_folds_refuses_rows_no_fold_would_hold(y):
    with pytest.raises(ValueError, match="binary 0/1 labels"):
        stratified_folds(np.array(y), 2, 0)


def test_default_lambda_grid_shape():
    grid = default_lambda_grid()
    assert len(grid) == 13
    assert grid == sorted(grid)
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(1e3)
    # the reciprocals of 13 log-spaced strengths from 1e-3 to 1e3, to the bit
    cs = np.logspace(np.log10(1e-3), np.log10(1e3), 13)
    assert grid == sorted(float(1.0 / c) for c in cs)


def test_nested_cv_without_a_grid_selects_from_the_default_grid():
    report = nested_cv(signal_dataset(), 1, "l2", seed=0)
    assert report.lambda_grid == default_lambda_grid()
    for fold in report.folds:
        assert sorted(fold.inner_scores) == report.lambda_grid
        assert fold.selected_lam in report.lambda_grid


# ---------------------------------------------------------------------------
# nested CV
# ---------------------------------------------------------------------------

def test_cv_report_keys_each_inner_score_by_the_grid_value_it_holds():
    """Two grid values equal to 12 significant digits keep a score each:
    every fold's inner_scores key is the repr of its value, the text the
    report's lambda_grid holds."""
    grid = [0.1, 0.1000000000001, 1.0]
    payload = nested_cv(signal_dataset(), 1, "l2", lambda_grid=grid).to_dict()
    texts = [json.dumps(lam) for lam in payload["lambda_grid"]]
    assert texts == ["0.1", "0.1000000000001", "1.0"]
    for fold in payload["folds"]:
        assert list(fold["inner_scores"]) == texts

def test_nested_cv_deterministic_bytes():
    ds = signal_dataset()
    for penalty, k, grid in (("l2", 1, [0.1, 1.0, 10.0]), ("l1", 2, [0.01, 0.1, 1.0, 10.0])):
        kwargs = dict(lambda_grid=grid, seed=3)
        a = nested_cv(ds, k, penalty, **kwargs)
        b = nested_cv(ds, k, penalty, jobs=3, **kwargs)
        assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("grid", [[0.1, 1.0, 10.0], [0.5, 5.0]])
def test_nested_cv_fit_count(cv_fit_configs, grid):
    """Every inner-grid cell and every outer refit is one ``train.fit`` call,
    5 * (G * 3 + 1) in all over the 5 outer and 3 inner folds; the
    benchmark's closed-form fit count relies on it."""
    nested_cv(signal_dataset(seed=1), 2, "l1", lambda_grid=grid, seed=0)
    assert len(cv_fit_configs) == 5 * (len(grid) * 3 + 1)


@pytest.mark.parametrize("penalty", ["l1", "l2"])
def test_warm_started_inner_scores_equal_cold_fits(penalty):
    """Fold 0's inner scores, the mean accuracies recomputed from cold fits
    on freshly built inner-train datasets and the full metric set, equal
    the report's warm-started path exactly, and its outer refit is the cold
    fit."""
    ds = gen_pure_pairwise(4, 120, pairs=2, seed=3)
    grid = [1e-3, 1e-2, 0.1, 1.0, 10.0]
    seed = 2
    report = nested_cv(ds, 2, penalty, lambda_grid=grid, seed=seed)
    assert report.to_dict()["selection_metric"] == "accuracy"

    test_rows = stratified_folds(ds.y, OUTER_FOLDS, np.random.SeedSequence([seed, 0]))[0]
    train = ds.subset(np.setdiff1d(np.arange(ds.n_samples), test_rows))
    inner = stratified_folds(train.y, INNER_FOLDS, np.random.SeedSequence([seed, 1, 0]))
    expected = {}
    for lam in grid:
        scores = []
        for val_rows in inner:
            fit_rows = np.setdiff1d(np.arange(train.n_samples), val_rows)
            model = fit(train.subset(fit_rows), 2, FitConfig(penalty=penalty, lam=lam)).model
            proba = model.predict_proba(train.x[val_rows])
            full = metrics(train.y[val_rows], (proba >= 0.5).astype(int), proba)
            scores.append(full.accuracy)
        expected[lam] = float(np.mean(scores))
    assert report.folds[0].inner_scores == expected
    # the outer refit starts cold, so its coefficients are the plain fit's
    refit = fit(train, 2, FitConfig(penalty=penalty, lam=report.folds[0].selected_lam))
    assert np.array_equal(report.folds[0].result.parameters, refit.parameters)


def test_nested_cv_test_rows_partition():
    ds = signal_dataset(seed=2)
    report = nested_cv(ds, 1, "l2", lambda_grid=[1.0], seed=0)
    rows = sorted(r for f in report.folds for r in f.test_rows)
    assert rows == list(range(ds.n_samples))


def test_nested_cv_canary_test_rows_never_leak():
    """Perturbing the feature values of one fold's test rows must leave that
    fold's fitted coefficients bit-identical."""
    ds = signal_dataset(seed=4)
    report = nested_cv(ds, 2, "l2", lambda_grid=[0.5, 5.0], seed=1)
    fold = report.folds[0]
    x2 = ds.x.copy()
    x2[np.asarray(fold.test_rows)] = np.random.default_rng(9).uniform(size=(len(fold.test_rows), ds.n_features))
    perturbed = Dataset(x=x2, y=ds.y, feature_names=ds.feature_names, name=ds.name)
    report2 = nested_cv(perturbed, 2, "l2", lambda_grid=[0.5, 5.0], seed=1)
    assert np.array_equal(report2.folds[0].result.parameters, fold.result.parameters)
    assert report2.folds[0].selected_lam == fold.selected_lam


@pytest.mark.parametrize("penalty, status", [("none", "separable"), ("l2", "converged")])
def test_cv_report_folds_say_how_each_refit_stopped(penalty, status):
    """Each fold entry of the JSON report holds exactly its outer refit's
    ``report_dict()`` values, and ``models`` reads the folds' refits."""
    ds = gen_pure_pairwise(4, 120, pairs=2, seed=3)
    report = nested_cv(ds, 2, penalty, lambda_grid=[1.0], seed=0)
    entries = json.loads(json.dumps(report.to_dict()))["folds"]
    assert len(entries) == len(report.folds) == len(report.models) == 5
    for i, (fold, entry) in enumerate(zip(report.folds, entries)):
        expected = fold.result.report_dict()
        assert {key: entry[key] for key in expected} == expected
        assert entry["status"] == status
        assert report.models[i] is fold.result.model


def test_inner_ties_prefer_smaller_lambda():
    # perfectly separable in one feature: every lambda scores 1.0 inside
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(0, 0.3, size=(40, 1)), rng.uniform(0.7, 1, size=(40, 1))])
    ds = Dataset(x=x, y=np.repeat([0, 1], 40), feature_names=["a"], name="sep")
    report = nested_cv(ds, 1, "l2", lambda_grid=[0.01, 0.1, 1.0], seed=2)
    for fold in report.folds:
        if len(set(fold.inner_scores.values())) == 1:
            assert fold.selected_lam == 0.01


@pytest.mark.parametrize("grid", [[0.1, np.nan], [np.nan], [np.inf, 1.0], [0.0, 1.0], [-1.0], []])
def test_nested_cv_rejects_unusable_grids(grid):
    with pytest.raises(ValueError, match="lambda grid"):
        nested_cv(signal_dataset(seed=6), 1, "l2", lambda_grid=grid, seed=0)


@pytest.mark.parametrize("penalty", ["l1", "l2"])
def test_nested_cv_refuses_a_repeated_lambda(cv_fit_configs, penalty):
    """A repeated lambda would be fitted twice per inner split and its scores
    pooled; the grid is refused before any fit."""
    with pytest.raises(ValueError, match="lambda grid repeats 1.0$"):
        nested_cv(signal_dataset(seed=6), 1, penalty, lambda_grid=[1.0, 1, 0.1], seed=0)
    assert cv_fit_configs == []


def test_penalty_none_skips_grid():
    ds = signal_dataset(seed=6)
    # the grid is ignored without a penalty, a repeated value too
    report = nested_cv(ds, 1, "none", lambda_grid=[0.1, 1.0, 0.1], seed=0)
    assert report.lambda_grid == [0.0]
    assert all(f.selected_lam == 0.0 for f in report.folds)
    assert all(f.inner_scores == {} for f in report.folds)


def test_nested_cv_aggregate_consistency():
    ds = signal_dataset(seed=7)
    report = nested_cv(ds, 1, "l2", lambda_grid=[1.0], seed=0)
    agg = report.aggregate()
    accs = [f.metrics.accuracy for f in report.folds]
    assert agg["accuracy"][0] == pytest.approx(np.mean(accs))
    assert agg["accuracy"][1] == pytest.approx(np.std(accs))


# ---------------------------------------------------------------------------
# noise robustness
# ---------------------------------------------------------------------------

def test_noise_sigma_zero_is_clean_accuracy(monkeypatch):
    """With every normal draw patched to zero, each level of SIGMAS scores
    the unperturbed inputs: the clean accuracy exactly, with a std of 0."""
    ds = signal_dataset(seed=9)
    result = fit(ds, 1, FitConfig(penalty="l2", lam=1.0))
    clean = float((result.model.predict(ds.x) == ds.y).mean())

    class ZeroDraws:
        def normal(self, loc, scale, size):
            return np.zeros(size)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: ZeroDraws())
    for repeats in (1, 3, 10):
        rob = noise_robustness(result.model, ds.x, ds.y, repeats=repeats, seed=0)
        assert rob == {sigma: (clean, 0.0) for sigma in SIGMAS}


def test_noise_deterministic():
    ds = signal_dataset(seed=10)
    result = fit(ds, 1, FitConfig(penalty="l2", lam=1.0))
    a = noise_robustness(result.model, ds.x, ds.y, repeats=4, seed=5)
    b = noise_robustness(result.model, ds.x, ds.y, repeats=4, seed=5)
    assert a == b
    assert tuple(a) == SIGMAS == (0.1, 0.2, 0.3)


@pytest.mark.parametrize("repeats", [0, -2])
def test_robustness_and_bootstrap_need_a_repeat(repeats):
    """No repeat means an empty mean: a ValueError, not a NaN column."""
    ds = signal_dataset(seed=10)
    model = fit(ds, 1, FitConfig(penalty="l2", lam=1.0)).model
    with pytest.raises(ValueError, match="at least 1 repeat"):
        noise_robustness(model, ds.x, ds.y, repeats=repeats)
    with pytest.raises(ValueError, match="at least 1 resample"):
        bootstrap_stability(ds, 1, "l2", 1.0, resamples=repeats)


@pytest.mark.parametrize("settings, message", [
    (dict(k_range=[]), "at least 1 order and 1 penalty"),
    (dict(penalties=()), "at least 1 order and 1 penalty"),
    (dict(noise_repeats=0), "at least 1 repeat"),
    (dict(bootstrap_resamples=0), "at least 1 resample"),
    (dict(k_range=[1, 2, 1]), "orders repeat k=1"),
    (dict(penalties=("l2", "none", "l2")), "penalties repeat 'l2'"),
])
def test_k_sweep_checks_its_settings_before_any_fit(cv_fit_configs, settings, message):
    """A library caller learns of a bad noise or bootstrap setting, or an
    empty or repeated list of orders or penalties, before the first cell's
    nested CV, not after it."""
    with pytest.raises(ValueError, match=message):
        k_sweep_benchmark(signal_dataset(seed=10),
                          **{"k_range": [1], "penalties": ("l2",), "noise_repeats": 1,
                             "bootstrap_resamples": 1, **settings})
    assert cv_fit_configs == []


def test_noise_degrades_separable_accuracy():
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(0, 0.35, size=(60, 1)), rng.uniform(0.65, 1, size=(60, 1))])
    ds = Dataset(x=x, y=np.repeat([0, 1], 60), feature_names=["a"], name="sep")
    result = fit(ds, 1, FitConfig(penalty="l2", lam=0.1))
    clean = float((result.model.predict(ds.x) == ds.y).mean())
    rob = noise_robustness(result.model, ds.x, ds.y, repeats=10, seed=1)
    assert rob[0.3][0] <= clean + 0.02


# ---------------------------------------------------------------------------
# bootstrap stability
# ---------------------------------------------------------------------------

def test_bootstrap_deterministic():
    ds = signal_dataset(seed=12)
    a = bootstrap_stability(ds, 1, "l2", 1.0, resamples=8, seed=4)
    b = bootstrap_stability(ds, 1, "l2", 1.0, resamples=8, seed=4, jobs=2)
    assert np.array_equal(a.accuracies, b.accuracies)


def test_bootstrap_constant_predictor_tracks_oob_base_rate():
    """With the indices pinned to ~0 by a huge penalty, every resample yields
    the majority-class predictor; the accuracy spread is then exactly the
    spread of the out-of-bag majority fraction."""
    ds = signal_dataset(seed=13, imbalance=0.25)
    result = bootstrap_stability(ds, 1, "l2", 1e9, resamples=10, seed=2)
    expected = []
    for b in range(10):
        rng = np.random.default_rng(np.random.SeedSequence([2, b]))
        rows = rng.integers(0, ds.n_samples, size=ds.n_samples)
        oob = np.setdiff1d(np.arange(ds.n_samples), rows)
        train_y = ds.y[rows]
        if oob.size == 0 or train_y.sum() < 2 or (train_y == 0).sum() < 2:
            continue
        majority = 1 if train_y.mean() > 0.5 else 0
        expected.append((ds.y[oob] == majority).mean())
    assert result.accuracies == pytest.approx(np.array(expected), abs=1e-12)


def test_bootstrap_skips_degenerate():
    # tiny minority: some resamples will miss it
    rng = np.random.default_rng(14)
    x = rng.uniform(size=(30, 2))
    y = np.zeros(30, dtype=int)
    y[:3] = 1
    ds = Dataset(x=x, y=y, feature_names=["a", "b"], name="tiny")
    result = bootstrap_stability(ds, 1, "l2", 1.0, resamples=30, seed=0)
    assert result.requested == 30
    assert result.effective + result.skipped == 30
    assert result.skipped > 0


def test_bootstrap_std_is_none_without_a_usable_resample():
    empty = BootstrapResult(accuracies=np.array([]), requested=2)
    assert empty.std is None and empty.skipped == 2
    full = BootstrapResult(accuracies=np.array([0.5, 1.0]), requested=2)
    assert full.std == 0.25 and full.skipped == 0


def test_best_k_by_stability_skips_orders_without_a_bootstrap_std(monkeypatch):
    def summary(*stds):
        rows = [{"dataset": "d", "penalty": "l2", "k": k, "accuracy_mean": 0.5,
                 "accuracy_std": 0.0, "robustness_mean": 0.5, "robustness_std": 0.0,
                 "bootstrap_std": std} for k, std in enumerate(stds, start=1)]
        monkeypatch.setattr(SweepReport, "cell_rows", lambda self: rows)
        return SweepReport(dataset="d", k_values=list(range(1, len(stds) + 1)),
                           penalties=["l2"], cells={}).summary_rows()[0]

    row = summary(None, 0.25, None)
    assert (row["Best K (Stab)"], row["Bootstrap Stability (Std)"]) == (2, 0.25)
    row = summary(None, None)
    assert (row["Best K (Stab)"], row["Bootstrap Stability (Std)"]) == (None, None)


# ---------------------------------------------------------------------------
# resources and sweep
# ---------------------------------------------------------------------------

def test_cv_resources_time_the_outer_refits(cv_fit_configs):
    """A one-point grid makes only the outer refits, each class-weighted as
    asked; their costs are the folds' own timings, which equality ignores."""
    report = nested_cv(signal_dataset(seed=16), 1, "l2", lambda_grid=[1.0],
                       class_weighting="inverse_frequency")
    assert [c.class_weighting for c in cv_fit_configs] == ["inverse_frequency"] * OUTER_FOLDS
    prof = report.resources()
    assert all(f.fit_s > 0 and f.predict_s > 0 for f in report.folds)
    assert prof.train_time_s == np.mean([f.fit_s for f in report.folds])
    assert prof.infer_time_s == np.mean([f.predict_s for f in report.folds])
    fold = report.folds[0]
    assert dataclasses.replace(fold, fit_s=-1.0, predict_s=-1.0) == fold


def test_cv_resources_flops_convention():
    ds = signal_dataset(n=8, big_n=768, seed=15)
    prof1 = nested_cv(ds, 1, "l2", lambda_grid=[1.0]).resources()
    assert prof1.flops == pytest.approx(2 * 8 * 153.6)
    assert prof1.flops == pytest.approx(2457.6)
    prof2 = nested_cv(ds, 2, "l2", lambda_grid=[1.0]).resources()
    assert prof2.flops == pytest.approx(2 * 36 * 153.6)
    assert prof2.model_size_mb > prof1.model_size_mb


def test_k_sweep_single_k_matches_nested_cv():
    ds = signal_dataset(seed=16)
    sweep = k_sweep_benchmark(ds, [1], penalties=("l2",), lambda_grid=[1.0],
                              noise_repeats=2, bootstrap_resamples=4, seed=3)
    single = nested_cv(ds, 1, "l2", lambda_grid=[1.0], seed=3)
    cell = sweep.cells[("l2", 1)]
    assert cell.cv.to_dict() == single.to_dict()
    assert cell.accuracy_mean == pytest.approx(single.mean_metric("accuracy"))
    rows = sweep.summary_rows()
    assert rows[0]["Best K (Acc)"] == 1


def test_k_sweep_pairwise_signal_prefers_k2():
    ds = gen_pure_pairwise(n=8, big_n=400, pairs=3, seed=2)
    sweep = k_sweep_benchmark(ds, [1, 2], penalties=("none",),
                              noise_repeats=2, bootstrap_resamples=4, seed=0, jobs=4)
    assert sweep.cells[("none", 2)].accuracy_mean > sweep.cells[("none", 1)].accuracy_mean
