import numpy as np
import pytest

from shapreg.cv import (
    bootstrap_stability,
    default_lambda_grid,
    k_sweep_benchmark,
    nested_cv,
    noise_robustness,
    resource_profile,
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


def test_default_lambda_grid_shape():
    grid = default_lambda_grid()
    assert len(grid) == 13
    assert grid == sorted(grid)
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(1e3)


# ---------------------------------------------------------------------------
# nested CV
# ---------------------------------------------------------------------------

def test_nested_cv_deterministic_bytes():
    ds = signal_dataset()
    for penalty, k, grid in (("l2", 1, [0.1, 1.0, 10.0]), ("l1", 2, [0.01, 0.1, 1.0, 10.0])):
        kwargs = dict(lambda_grid=grid, seed=3)
        a = nested_cv(ds, k, penalty, **kwargs)
        b = nested_cv(ds, k, penalty, jobs=3, **kwargs)
        assert a.to_json() == b.to_json()


@pytest.mark.parametrize("grid, outer, inner", [([0.1, 1.0, 10.0], 3, 2), ([0.5, 5.0], 2, 4)])
def test_nested_cv_fit_count(cv_fit_configs, grid, outer, inner):
    """Every inner-grid cell and every outer refit is one ``train.fit`` call,
    O * (G * I + 1) in all; the benchmark's closed-form fit count relies on it."""
    nested_cv(signal_dataset(seed=1), 2, "l1", lambda_grid=grid,
              outer_folds=outer, inner_folds=inner, seed=0)
    assert len(cv_fit_configs) == outer * (len(grid) * inner + 1)


@pytest.mark.parametrize("penalty, selection_metric", [("l1", "accuracy"), ("l2", "f1")])
def test_warm_started_inner_scores_equal_cold_fits(penalty, selection_metric):
    """Fold 0's inner scores, recomputed from cold fits on freshly built
    inner-train datasets and the full metric set, equal the report's
    warm-started path exactly, and its outer refit is the cold fit."""
    ds = gen_pure_pairwise(4, 120, pairs=2, seed=3)
    grid = [1e-3, 1e-2, 0.1, 1.0, 10.0]
    seed, outer_folds, inner_folds = 2, 3, 3
    report = nested_cv(ds, 2, penalty, lambda_grid=grid, outer_folds=outer_folds,
                       inner_folds=inner_folds, selection_metric=selection_metric, seed=seed)

    test_rows = stratified_folds(ds.y, outer_folds, np.random.SeedSequence([seed, 0]))[0]
    train = ds.subset(np.setdiff1d(np.arange(ds.n_samples), test_rows))
    inner = stratified_folds(train.y, inner_folds, np.random.SeedSequence([seed, 1, 0]))
    expected = {}
    for lam in grid:
        scores = []
        for val_rows in inner:
            fit_rows = np.setdiff1d(np.arange(train.n_samples), val_rows)
            model = fit(train.subset(fit_rows), 2, FitConfig(penalty=penalty, lam=lam)).model
            proba = model.predict_proba(train.x[val_rows])
            full = metrics(train.y[val_rows], (proba >= 0.5).astype(int), proba)
            scores.append(getattr(full, selection_metric))
        expected[lam] = float(np.mean(scores))
    assert report.folds[0].inner_scores == expected
    # the outer refit starts cold, so its coefficients are the plain fit's
    refit = fit(train, 2, FitConfig(penalty=penalty, lam=report.folds[0].selected_lam))
    assert report.folds[0].coefficients == [float(v) for v in refit.parameters]


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
    assert report2.folds[0].coefficients == fold.coefficients
    assert report2.folds[0].selected_lam == fold.selected_lam


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


def test_penalty_none_skips_grid():
    ds = signal_dataset(seed=6)
    report = nested_cv(ds, 1, "none", lambda_grid=[0.1, 1.0], seed=0)
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


def test_selection_metric_f1():
    ds = signal_dataset(seed=8, imbalance=0.25)
    report = nested_cv(ds, 1, "l2", lambda_grid=[0.1, 1.0], selection_metric="f1", seed=0)
    assert report.selection_metric == "f1"


# ---------------------------------------------------------------------------
# noise robustness
# ---------------------------------------------------------------------------

def test_noise_sigma_zero_is_clean_accuracy():
    ds = signal_dataset(seed=9)
    result = fit(ds, 1, FitConfig(penalty="l2", lam=1.0))
    clean = (result.model.predict(ds.x) == ds.y).mean()
    rob = noise_robustness(result.model, ds.x, ds.y, sigmas=(0.0, 0.2), repeats=3, seed=0)
    assert rob[0.0] == (pytest.approx(clean), 0.0)


def test_noise_deterministic():
    ds = signal_dataset(seed=10)
    result = fit(ds, 1, FitConfig(penalty="l2", lam=1.0))
    a = noise_robustness(result.model, ds.x, ds.y, repeats=4, seed=5)
    b = noise_robustness(result.model, ds.x, ds.y, repeats=4, seed=5)
    assert a == b


@pytest.mark.parametrize("repeats", [0, -2])
def test_robustness_and_bootstrap_need_a_repeat(repeats):
    """No repeat means an empty mean: a ValueError, not a NaN column."""
    ds = signal_dataset(seed=10)
    model = fit(ds, 1, FitConfig(penalty="l2", lam=1.0)).model
    with pytest.raises(ValueError, match="at least 1 repeat"):
        noise_robustness(model, ds.x, ds.y, repeats=repeats)
    with pytest.raises(ValueError, match="at least 1 resample"):
        bootstrap_stability(ds, 1, "l2", 1.0, resamples=repeats)


def test_noise_degrades_separable_accuracy():
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(0, 0.35, size=(60, 1)), rng.uniform(0.65, 1, size=(60, 1))])
    ds = Dataset(x=x, y=np.repeat([0, 1], 60), feature_names=["a"], name="sep")
    result = fit(ds, 1, FitConfig(penalty="l2", lam=0.1))
    rob = noise_robustness(result.model, ds.x, ds.y, sigmas=(0.0, 0.3), repeats=10, seed=1)
    assert rob[0.3][0] <= rob[0.0][0] + 0.02


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


# ---------------------------------------------------------------------------
# resources and sweep
# ---------------------------------------------------------------------------

def test_resource_profile_fits_with_the_class_weighting(cv_fit_configs):
    resource_profile(signal_dataset(seed=16), 1, "l2", 1.0, folds=3,
                     class_weighting="inverse_frequency")
    assert [c.class_weighting for c in cv_fit_configs] == ["inverse_frequency"] * 3


def test_resource_profile_flops_convention():
    ds = signal_dataset(n=8, big_n=768, seed=15)
    prof1 = resource_profile(ds, 1, "l2", 1.0, folds=5)
    assert prof1.flops == pytest.approx(2 * 8 * 153.6)
    assert prof1.flops == pytest.approx(2457.6)
    prof2 = resource_profile(ds, 2, "l2", 1.0, folds=5)
    assert prof2.flops == pytest.approx(2 * 36 * 153.6)
    assert prof2.model_size_mb > prof1.model_size_mb


def test_k_sweep_single_k_matches_nested_cv():
    ds = signal_dataset(seed=16)
    sweep = k_sweep_benchmark(ds, [1], penalties=("l2",), lambda_grid=[1.0],
                              noise_repeats=2, bootstrap_resamples=4, seed=3)
    single = nested_cv(ds, 1, "l2", lambda_grid=[1.0], seed=3)
    cell = sweep.cells[("l2", 1)]
    assert cell.cv.to_json() == single.to_json()
    assert cell.accuracy_mean == pytest.approx(single.mean_metric("accuracy"))
    rows = sweep.summary_rows()
    assert rows[0]["best_k_acc"] == 1


def test_k_sweep_pairwise_signal_prefers_k2():
    ds = gen_pure_pairwise(n=8, big_n=400, pairs=3, seed=2)
    sweep = k_sweep_benchmark(ds, [1, 2], penalties=("none",),
                              noise_repeats=2, bootstrap_resamples=4, seed=0, jobs=4)
    assert sweep.cells[("none", 2)].accuracy_mean > sweep.cells[("none", 1)].accuracy_mean
