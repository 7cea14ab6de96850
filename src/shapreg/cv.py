"""Nested cross-validation, k-sweep benchmarking, noise robustness, bootstrap
stability, and resource profiling."""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .games import num_coalitions
from .metrics import MetricSet, metrics, threshold_metrics
from .model import ShapleyModel, expit
from .parallel import map_ordered
from .train import FitConfig, FitResult, fit, prepare

logger = logging.getLogger(__name__)

SELECTION_METRICS = ("accuracy", "f1")


def default_lambda_grid(points: int = 13, c_low: float = 1e-3, c_high: float = 1e3) -> list[float]:
    """Regularization grid: log-spaced reciprocal strengths c = 1/lam,
    returned as ascending lambda values."""
    cs = np.logspace(np.log10(c_low), np.log10(c_high), points)
    return sorted(float(1.0 / c) for c in cs)


def stratified_folds(y: np.ndarray, n_folds: int, seed) -> list[np.ndarray]:
    """Deterministic stratified fold assignment.

    Rows of each class are shuffled with the seeded generator and dealt
    round-robin, so per-fold class counts differ from perfect proportionality
    by at most one row.
    """
    y = np.asarray(y)
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for label in (0, 1):
        rows = np.flatnonzero(y == label)
        if 0 < rows.size < n_folds:
            raise ValueError(
                f"stratification impossible: class {label} has {rows.size} rows "
                f"for {n_folds} folds"
            )
        rng.shuffle(rows)
        for pos, row in enumerate(rows):
            folds[pos % n_folds].append(int(row))
    return [np.sort(np.array(f, dtype=int)) for f in folds]


def _evaluate(model: ShapleyModel, x_raw: np.ndarray, y: np.ndarray) -> MetricSet:
    proba = model.predict_proba(x_raw)
    return metrics(y, (proba >= 0.5).astype(int), proba)


@dataclass(frozen=True)
class FoldReport:
    fold: int
    selected_lam: float
    inner_scores: dict[float, float]
    metrics: MetricSet
    coefficients: list[float]  # [bias, indices...]
    converged: bool
    test_rows: list[int]


@dataclass(frozen=True)
class CVReport:
    dataset: str
    k: int
    penalty: str
    selection_metric: str
    class_weighting: str
    seed: int
    outer_folds: int
    inner_folds: int
    lambda_grid: list[float]
    folds: list[FoldReport]
    models: list[ShapleyModel] = field(repr=False)

    def aggregate(self) -> dict[str, tuple[float, float] | None]:
        """Mean and std per metric across outer folds; None when a metric was
        undefined on every fold."""
        out: dict[str, tuple[float, float] | None] = {}
        for name in MetricSet.__dataclass_fields__:
            vals = [getattr(f.metrics, name) for f in self.folds]
            vals = [v for v in vals if v is not None]
            out[name] = (float(np.mean(vals)), float(np.std(vals))) if vals else None
        return out

    def mean_metric(self, name: str) -> float:
        agg = self.aggregate()[name]
        if agg is None:
            raise ValueError(f"metric '{name}' undefined on all folds")
        return agg[0]

    def nonconverged_fits(self) -> int:
        return sum(1 for f in self.folds if not f.converged)

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "k": self.k,
            "penalty": self.penalty,
            "selection_metric": self.selection_metric,
            "class_weighting": self.class_weighting,
            "seed": self.seed,
            "outer_folds": self.outer_folds,
            "inner_folds": self.inner_folds,
            "lambda_grid": self.lambda_grid,
            "aggregate": {
                name: (None if agg is None else {"mean": agg[0], "std": agg[1]})
                for name, agg in self.aggregate().items()
            },
            "folds": [
                {
                    "fold": f.fold,
                    "selected_lam": f.selected_lam,
                    "inner_scores": {f"{lam:.12g}": s for lam, s in f.inner_scores.items()},
                    "metrics": f.metrics.to_dict(),
                    "coefficients": f.coefficients,
                    "converged": f.converged,
                    "test_rows": f.test_rows,
                }
                for f in self.folds
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def nested_cv(
    dataset: Dataset,
    k: int,
    penalty: str,
    lambda_grid: list[float] | None = None,
    outer_folds: int = 5,
    inner_folds: int = 3,
    selection_metric: str = "accuracy",
    class_weighting: str = "off",
    seed: int = 0,
    jobs: int = 1,
) -> CVReport:
    """Stratified nested cross-validation.

    The inner loop scores every grid lambda by the mean selection metric over
    ``inner_folds`` stratified splits of the outer-train rows (ties prefer the
    smaller lambda).  Each inner split builds its normalization and design
    once and solves the grid as a path in descending lambda, every fit
    warm-started from the previous one's parameters; its validation rows are
    scored for the selection metric only.  The winner is refit cold (from
    zero) on the full outer-train split, whose min-max normalization never
    sees test rows.  Everything derives from ``seed``, so reports are
    byte-identical across runs and ``jobs`` values.
    """
    if penalty == "none":
        grid = [0.0]
    else:
        if lambda_grid is None:
            lambda_grid = default_lambda_grid()
        grid = sorted(float(l) for l in lambda_grid)
        if not grid or not all(0 < l < math.inf for l in grid):  # NaN fails too
            raise ValueError(f"lambda grid must hold finite positive values, got {grid}")
    _score_name = selection_metric
    if _score_name not in SELECTION_METRICS:
        raise ValueError(f"selection metric must be one of {SELECTION_METRICS}")

    outer = stratified_folds(dataset.y, outer_folds, np.random.SeedSequence([seed, 0]))

    def run_outer(fold_id: int) -> tuple[FoldReport, ShapleyModel]:
        test_rows = outer[fold_id]
        train_mask = np.ones(dataset.n_samples, dtype=bool)
        train_mask[test_rows] = False
        train_rows = np.flatnonzero(train_mask)
        train = dataset.subset(train_rows)
        test_x, test_y = dataset.x[test_rows], dataset.y[test_rows]

        inner_scores: dict[float, float] = {}
        if len(grid) > 1:
            inner = stratified_folds(
                train.y, inner_folds, np.random.SeedSequence([seed, 1, fold_id])
            )
            scores: dict[float, list[float]] = {lam: [] for lam in grid}
            for val_rows in inner:
                fit_mask = np.ones(train.n_samples, dtype=bool)
                fit_mask[val_rows] = False
                problem = prepare(train.subset(np.flatnonzero(fit_mask)), k)
                val_x, val_y = train.x[val_rows], train.y[val_rows]
                start = None
                for lam in reversed(grid):
                    config = FitConfig(penalty=penalty, lam=lam, class_weighting=class_weighting)
                    result = fit(problem, k, config, start=start)
                    start = result.parameters
                    rates = threshold_metrics(val_y, result.model.predict(val_x))
                    scores[lam].append(rates[_score_name])
            inner_scores = {lam: float(np.mean(scores[lam])) for lam in grid}
            best_lam = max(grid, key=lambda l: (inner_scores[l], -l))
        else:
            best_lam = grid[0]

        config = FitConfig(penalty=penalty, lam=best_lam, class_weighting=class_weighting)
        result = fit(train, k, config)
        fold_report = FoldReport(
            fold=fold_id,
            selected_lam=best_lam,
            inner_scores=inner_scores,
            metrics=_evaluate(result.model, test_x, test_y),
            coefficients=[float(v) for v in result.parameters],
            converged=result.converged,
            test_rows=[int(r) for r in test_rows],
        )
        return fold_report, result.model

    results = map_ordered(run_outer, range(outer_folds), jobs=jobs)
    return CVReport(
        dataset=dataset.name,
        k=k,
        penalty=penalty,
        selection_metric=_score_name,
        class_weighting=class_weighting,
        seed=seed,
        outer_folds=outer_folds,
        inner_folds=inner_folds,
        lambda_grid=grid,
        folds=[r[0] for r in results],
        models=[r[1] for r in results],
    )


# ---------------------------------------------------------------------------
# robustness, stability, resources
# ---------------------------------------------------------------------------

def noise_robustness(
    model: ShapleyModel,
    x_test: np.ndarray,
    y_test: np.ndarray,
    sigmas=(0.1, 0.2, 0.3),
    repeats: int = 10,
    seed: int = 0,
) -> dict[float, tuple[float, float]]:
    """Accuracy under i.i.d. Gaussian perturbation of the normalized test
    inputs, clipped back into [0,1]; mean and std over ``repeats``.

    sigma = 0 reproduces the clean accuracy exactly.
    """
    if repeats < 1:
        raise ValueError(f"noise robustness needs at least 1 repeat, got {repeats}")
    x_norm = model.normalize(x_test)
    y_test = np.asarray(y_test)
    out: dict[float, tuple[float, float]] = {}
    for s_idx, sigma in enumerate(sigmas):
        if sigma == 0:
            proba = expit(model.logit_normalized(x_norm))
            acc = float(((proba >= 0.5).astype(int) == y_test).mean())
            out[float(sigma)] = (acc, 0.0)
            continue
        accs = []
        for r in range(repeats):
            rng = np.random.default_rng(np.random.SeedSequence([seed, s_idx, r]))
            perturbed = np.clip(x_norm + rng.normal(0.0, sigma, size=x_norm.shape), 0.0, 1.0)
            proba = expit(model.logit_normalized(perturbed))
            accs.append(float(((proba >= 0.5).astype(int) == y_test).mean()))
        out[float(sigma)] = (float(np.mean(accs)), float(np.std(accs)))
    return out


@dataclass(frozen=True)
class BootstrapResult:
    accuracies: np.ndarray
    requested: int
    skipped: int

    @property
    def effective(self) -> int:
        return int(self.accuracies.size)

    @property
    def std(self) -> float:
        return float(self.accuracies.std())


def bootstrap_stability(
    dataset: Dataset,
    k: int,
    penalty: str,
    lam: float,
    resamples: int = 50,
    seed: int = 0,
    class_weighting: str = "off",
    jobs: int = 1,
) -> BootstrapResult:
    """Std of out-of-bag accuracy across bootstrap refits.

    Each resample draws N rows with replacement, fits, and scores the rows
    that were never drawn.  Degenerate resamples (missing a class, or an empty
    out-of-bag set) are skipped and counted.
    """
    if resamples < 1:
        raise ValueError(f"bootstrap stability needs at least 1 resample, got {resamples}")
    config = FitConfig(penalty=penalty, lam=lam, class_weighting=class_weighting)

    def one(b: int) -> float | None:
        rng = np.random.default_rng(np.random.SeedSequence([seed, b]))
        rows = rng.integers(0, dataset.n_samples, size=dataset.n_samples)
        oob = np.flatnonzero(np.bincount(rows, minlength=dataset.n_samples) == 0)
        train = dataset.subset(rows)
        neg, pos = train.class_counts()
        if oob.size == 0 or pos < 2 or neg < 2:
            logger.info("bootstrap resample %d degenerate, skipped", b)
            return None
        result = fit(train, k, config)
        pred = result.model.predict(dataset.x[oob])
        return float((pred == dataset.y[oob]).mean())

    accs = [a for a in map_ordered(one, range(resamples), jobs=jobs) if a is not None]
    return BootstrapResult(
        accuracies=np.asarray(accs),
        requested=resamples,
        skipped=resamples - len(accs),
    )


@dataclass(frozen=True)
class ResourceProfile:
    train_time_s: float
    infer_time_s: float
    model_size_mb: float
    flops: float
    folds: int


def resource_profile(
    dataset: Dataset,
    k: int,
    penalty: str,
    lam: float,
    folds: int = 5,
    seed: int = 0,
    class_weighting: str = "off",
) -> ResourceProfile:
    """Wall-clock train/inference cost averaged over stratified folds.

    Model size counts (1 + D_k) float64 parameters; the FLOPs estimate is the
    inference cost 2 * D_k * (mean test-fold size), i.e. one multiply and one
    add per design-matrix entry of the test fold.
    """
    assignments = stratified_folds(dataset.y, folds, np.random.SeedSequence([seed, 0]))
    config = FitConfig(penalty=penalty, lam=lam, class_weighting=class_weighting)
    d_k = num_coalitions(dataset.n_features, k)

    train_times, infer_times, test_sizes = [], [], []
    for fold_id in range(folds):
        test_rows = assignments[fold_id]
        mask = np.ones(dataset.n_samples, dtype=bool)
        mask[test_rows] = False
        train = dataset.subset(np.flatnonzero(mask))

        t0 = time.perf_counter()
        result = fit(train, k, config)
        train_times.append(time.perf_counter() - t0)

        x_test = dataset.x[test_rows]
        t0 = time.perf_counter()
        result.model.predict_proba(x_test)
        infer_times.append(time.perf_counter() - t0)
        test_sizes.append(test_rows.size)

    mean_test = float(np.mean(test_sizes))
    return ResourceProfile(
        train_time_s=float(np.mean(train_times)),
        infer_time_s=float(np.mean(infer_times)),
        model_size_mb=(1 + d_k) * 8 / 2**20,
        flops=2.0 * d_k * mean_test,
        folds=folds,
    )


# ---------------------------------------------------------------------------
# k-sweep benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    penalty: str
    k: int
    cv: CVReport
    accuracy_mean: float
    accuracy_std: float
    robustness_mean: float
    robustness_std: float
    bootstrap: BootstrapResult
    bootstrap_lam: float


@dataclass(frozen=True)
class SweepReport:
    dataset: str
    k_values: list[int]
    penalties: list[str]
    seed: int
    sigmas: tuple[float, ...]
    noise_repeats: int
    cells: dict[tuple[str, int], SweepCell]

    def summary_rows(self) -> list[dict]:
        """One row per penalty, mirroring the benchmark summary table layout:
        best k by accuracy, by noise robustness, and by bootstrap stability."""
        rows = []
        for pen in self.penalties:
            cells = [self.cells[(pen, k)] for k in self.k_values]
            best_acc = max(cells, key=lambda c: (c.accuracy_mean, -c.k))
            best_rob = max(cells, key=lambda c: (c.robustness_mean, -c.k))
            best_stab = min(cells, key=lambda c: (c.bootstrap.std, c.k))
            rows.append({
                "dataset": self.dataset,
                "penalty": pen,
                "best_k_acc": best_acc.k,
                "accuracy_mean": best_acc.accuracy_mean,
                "accuracy_std": best_acc.accuracy_std,
                "best_k_robust": best_rob.k,
                "robustness_mean": best_rob.robustness_mean,
                "robustness_std": best_rob.robustness_std,
                "best_k_stab": best_stab.k,
                "bootstrap_std": best_stab.bootstrap.std,
            })
        return rows

    def cell_rows(self) -> list[dict]:
        rows = []
        for pen in self.penalties:
            for k in self.k_values:
                c = self.cells[(pen, k)]
                rows.append({
                    "dataset": self.dataset,
                    "penalty": pen,
                    "k": k,
                    "accuracy_mean": c.accuracy_mean,
                    "accuracy_std": c.accuracy_std,
                    "robustness_mean": c.robustness_mean,
                    "robustness_std": c.robustness_std,
                    "bootstrap_std": c.bootstrap.std,
                    "bootstrap_effective": c.bootstrap.effective,
                    "bootstrap_lam": c.bootstrap_lam,
                    "nonconverged_fits": c.cv.nonconverged_fits(),
                })
        return rows


def _modal_lambda(cv: CVReport) -> float:
    """Most frequently selected lambda across outer folds; ties prefer the
    smaller value."""
    selected = [f.selected_lam for f in cv.folds]
    uniq = sorted(set(selected))
    return max(uniq, key=lambda l: (selected.count(l), -l))


def k_sweep_benchmark(
    dataset: Dataset,
    k_range,
    penalties=("none", "l1", "l2"),
    lambda_grid: list[float] | None = None,
    outer_folds: int = 5,
    inner_folds: int = 3,
    selection_metric: str = "accuracy",
    class_weighting: str = "off",
    sigmas=(0.1, 0.2, 0.3),
    noise_repeats: int = 10,
    bootstrap_resamples: int = 50,
    seed: int = 0,
    jobs: int = 1,
) -> SweepReport:
    """Benchmark protocol: per (penalty, k), nested-CV accuracy, noise
    robustness of the per-fold models, and bootstrap stability at the modal
    selected lambda."""
    k_values = [int(k) for k in k_range]
    penalties = list(penalties)
    cells: dict[tuple[str, int], SweepCell] = {}
    for pen in penalties:
        for k in k_values:
            cv = nested_cv(
                dataset, k, pen,
                lambda_grid=lambda_grid,
                outer_folds=outer_folds,
                inner_folds=inner_folds,
                selection_metric=selection_metric,
                class_weighting=class_weighting,
                seed=seed,
                jobs=jobs,
            )
            acc = cv.aggregate()["accuracy"]

            # robustness: per outer fold, mean perturbed accuracy over sigmas
            # and repeats; aggregate across folds
            fold_means = []
            for fold, model in zip(cv.folds, cv.models):
                rows = np.asarray(fold.test_rows, dtype=int)
                rob = noise_robustness(
                    model, dataset.x[rows], dataset.y[rows],
                    sigmas=sigmas, repeats=noise_repeats,
                    seed=seed + fold.fold,
                )
                fold_means.append(float(np.mean([m for m, _ in rob.values()])))

            boot_lam = _modal_lambda(cv)
            boot = bootstrap_stability(
                dataset, k, pen, boot_lam,
                resamples=bootstrap_resamples,
                seed=seed,
                class_weighting=class_weighting,
                jobs=jobs,
            )
            cells[(pen, k)] = SweepCell(
                penalty=pen,
                k=k,
                cv=cv,
                accuracy_mean=acc[0],
                accuracy_std=acc[1],
                robustness_mean=float(np.mean(fold_means)),
                robustness_std=float(np.std(fold_means)),
                bootstrap=boot,
                bootstrap_lam=boot_lam,
            )
    return SweepReport(
        dataset=dataset.name,
        k_values=k_values,
        penalties=penalties,
        seed=seed,
        sigmas=tuple(float(s) for s in sigmas),
        noise_repeats=noise_repeats,
        cells=cells,
    )
