"""Nested cross-validation and the cost of its outer refits, k-sweep
benchmarking, noise robustness and bootstrap stability."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .metrics import MetricSet, metrics, threshold_metrics
from .model import ShapleyModel, expit
from .parallel import map_ordered
from .train import FitConfig, FitResult, fit, prepare

logger = logging.getLogger(__name__)

# the protocol's stratified folds: nested_cv's outer and inner splits; a
# CVReport's resources() averages over the outer folds
OUTER_FOLDS = 5
INNER_FOLDS = 3
# the noise levels noise_robustness perturbs the normalized inputs with
SIGMAS = (0.1, 0.2, 0.3)


def default_lambda_grid() -> list[float]:
    """Regularization grid: 13 log-spaced reciprocal strengths c = 1/lam
    from 1e-3 to 1e3, returned as ascending lambda values."""
    return sorted(float(1.0 / c) for c in np.logspace(-3, 3, 13))


def _repeated(values: list):
    """The first of ``values`` that an earlier one equals, or None."""
    return next((v for i, v in enumerate(values) if v in values[:i]), None)


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


def _without(dataset: Dataset, rows: np.ndarray) -> Dataset:
    """The rows of ``dataset`` not in ``rows``, in their order: the training
    side of a fold."""
    keep = np.ones(dataset.n_samples, dtype=bool)
    keep[rows] = False
    return dataset.subset(np.flatnonzero(keep))


@dataclass(frozen=True)
class FoldReport:
    fold: int
    selected_lam: float
    inner_scores: dict[float, float]
    metrics: MetricSet
    result: FitResult  # the outer refit on every row outside test_rows
    test_rows: list[int]
    # wall seconds of the outer refit (its prepare included) and of its
    # predict_proba on the test rows; never serialized, never compared
    fit_s: float = field(compare=False)
    predict_s: float = field(compare=False)


@dataclass(frozen=True)
class ResourceProfile:
    train_time_s: float
    infer_time_s: float
    model_size_mb: float
    flops: float


@dataclass(frozen=True)
class CVReport:
    dataset: str
    k: int
    penalty: str
    class_weighting: str
    seed: int
    lambda_grid: list[float]
    folds: list[FoldReport]

    @property
    def models(self) -> list[ShapleyModel]:
        """The outer refits' models, in fold order."""
        return [f.result.model for f in self.folds]

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

    def fits_with_status(self, status: str) -> int:
        return sum(1 for f in self.folds if f.result.status == status)

    def resources(self) -> ResourceProfile:
        """What the outer refits cost, averaged over the folds: the wall time
        of each refit and of its prediction on the fold's test rows.  Under
        ``jobs > 1`` the folds ran concurrently, and the times include that.

        Model size counts (1 + D_k) float64 parameters; the FLOPs estimate is
        the inference cost 2 * D_k * (mean test-fold size), i.e. one multiply
        and one add per design-matrix entry of the test fold.
        """
        d_k = self.folds[0].result.model.indices.size
        mean_test = float(np.mean([len(f.test_rows) for f in self.folds]))
        return ResourceProfile(
            train_time_s=float(np.mean([f.fit_s for f in self.folds])),
            infer_time_s=float(np.mean([f.predict_s for f in self.folds])),
            model_size_mb=(1 + d_k) * 8 / 2**20,
            flops=2.0 * d_k * mean_test,
        )

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "k": self.k,
            "penalty": self.penalty,
            "selection_metric": "accuracy",
            "class_weighting": self.class_weighting,
            "seed": self.seed,
            "outer_folds": OUTER_FOLDS,
            "inner_folds": INNER_FOLDS,
            "lambda_grid": self.lambda_grid,
            "aggregate": {
                name: (None if agg is None else {"mean": agg[0], "std": agg[1]})
                for name, agg in self.aggregate().items()
            },
            "folds": [
                {
                    "fold": f.fold,
                    "selected_lam": f.selected_lam,
                    "inner_scores": {repr(lam): s for lam, s in f.inner_scores.items()},
                    "metrics": f.metrics.to_dict(),
                    "coefficients": [float(v) for v in f.result.parameters],
                    **f.result.report_dict(),
                    "test_rows": f.test_rows,
                }
                for f in self.folds
            ],
        }


def nested_cv(
    dataset: Dataset,
    k: int,
    penalty: str,
    lambda_grid: list[float] | None = None,
    class_weighting: str = "off",
    seed: int = 0,
    jobs: int = 1,
) -> CVReport:
    """Stratified nested cross-validation over :data:`OUTER_FOLDS` outer folds.

    The inner loop scores every grid lambda by its mean accuracy over
    :data:`INNER_FOLDS` stratified splits of the outer-train rows (ties prefer
    the smaller lambda).  Each inner split builds its normalization and design
    once and solves the grid as a path in descending lambda, every fit
    warm-started from the previous one's parameters; its validation rows are
    scored for accuracy only.  The winner is refit cold (from
    zero) on the full outer-train split, whose min-max normalization never
    sees test rows; each fold records that refit's wall time and its
    prediction's (see :meth:`CVReport.resources`).  Everything else derives
    from ``seed``, so reports are byte-identical across runs and ``jobs``
    values.
    """
    if penalty == "none":
        grid = [0.0]
    else:
        if lambda_grid is None:
            lambda_grid = default_lambda_grid()
        grid = sorted(float(l) for l in lambda_grid)
        if not grid or not all(0 < l < math.inf for l in grid):  # NaN fails too
            raise ValueError(f"lambda grid must hold finite positive values, got {grid}")
        if (lam := _repeated(grid)) is not None:
            raise ValueError(f"lambda grid repeats {lam}")

    outer = stratified_folds(dataset.y, OUTER_FOLDS, np.random.SeedSequence([seed, 0]))

    def run_outer(fold_id: int) -> FoldReport:
        test_rows = outer[fold_id]
        train = _without(dataset, test_rows)
        test_x, test_y = dataset.x[test_rows], dataset.y[test_rows]

        inner_scores: dict[float, float] = {}
        if len(grid) > 1:
            inner = stratified_folds(
                train.y, INNER_FOLDS, np.random.SeedSequence([seed, 1, fold_id])
            )
            scores: dict[float, list[float]] = {lam: [] for lam in grid}
            for val_rows in inner:
                problem = prepare(_without(train, val_rows), k)
                val_x, val_y = train.x[val_rows], train.y[val_rows]
                start = None
                for lam in reversed(grid):
                    config = FitConfig(penalty=penalty, lam=lam, class_weighting=class_weighting)
                    result = fit(problem, k, config, start=start)
                    start = result.parameters
                    rates = threshold_metrics(val_y, result.model.predict(val_x))
                    scores[lam].append(rates["accuracy"])
            inner_scores = {lam: float(np.mean(scores[lam])) for lam in grid}
            best_lam = max(grid, key=lambda l: (inner_scores[l], -l))
        else:
            best_lam = grid[0]

        config = FitConfig(penalty=penalty, lam=best_lam, class_weighting=class_weighting)
        t0 = time.perf_counter()
        result = fit(train, k, config)
        fit_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        proba = result.model.predict_proba(test_x)
        predict_s = time.perf_counter() - t0
        return FoldReport(
            fold=fold_id,
            selected_lam=best_lam,
            inner_scores=inner_scores,
            metrics=metrics(test_y, (proba >= 0.5).astype(int), proba),
            result=result,
            test_rows=[int(r) for r in test_rows],
            fit_s=fit_s,
            predict_s=predict_s,
        )

    return CVReport(
        dataset=dataset.name,
        k=k,
        penalty=penalty,
        class_weighting=class_weighting,
        seed=seed,
        lambda_grid=grid,
        folds=map_ordered(run_outer, range(OUTER_FOLDS), jobs=jobs),
    )


# ---------------------------------------------------------------------------
# robustness, stability
# ---------------------------------------------------------------------------

def _check_count(count: int, protocol: str, unit: str) -> None:
    """Refuse a repeat or resample count below 1, whose mean would be NaN."""
    if count < 1:
        raise ValueError(f"{protocol} needs at least 1 {unit}, got {count}")


def _check_sweep(k_values: list[int], penalties: list[str]) -> None:
    """Refuse a sweep's empty list of orders or penalties, or one that repeats a value."""
    if not k_values or not penalties:
        raise ValueError("a sweep needs at least 1 order and 1 penalty")
    if (k := _repeated(k_values)) is not None:
        raise ValueError(f"orders repeat k={k}")
    if (pen := _repeated(penalties)) is not None:
        raise ValueError(f"penalties repeat '{pen}'")


def noise_robustness(
    model: ShapleyModel,
    x_test: np.ndarray,
    y_test: np.ndarray,
    repeats: int = 10,
    seed: int = 0,
) -> dict[float, tuple[float, float]]:
    """Accuracy under i.i.d. Gaussian perturbation of the normalized test
    inputs, clipped back into [0,1]: per level of :data:`SIGMAS`, the mean
    and std over ``repeats`` draws."""
    _check_count(repeats, "noise robustness", "repeat")
    x_norm = model.normalize(x_test)
    y_test = np.asarray(y_test)
    if y_test.shape != (x_norm.shape[0],):
        raise ValueError(f"y_test has shape {y_test.shape}, expected ({x_norm.shape[0]},): "
                         f"one label per x_test row")
    out: dict[float, tuple[float, float]] = {}
    for s_idx, sigma in enumerate(SIGMAS):
        accs = []
        for r in range(repeats):
            rng = np.random.default_rng(np.random.SeedSequence([seed, s_idx, r]))
            perturbed = np.clip(x_norm + rng.normal(0.0, sigma, size=x_norm.shape), 0.0, 1.0)
            proba = expit(model.logit_normalized(perturbed))
            accs.append(float(((proba >= 0.5).astype(int) == y_test).mean()))
        out[sigma] = (float(np.mean(accs)), float(np.std(accs)))
    return out


@dataclass(frozen=True)
class BootstrapResult:
    accuracies: np.ndarray
    requested: int

    @property
    def effective(self) -> int:
        return int(self.accuracies.size)

    @property
    def skipped(self) -> int:
        return self.requested - self.effective

    @property
    def std(self) -> float | None:
        """Std of the out-of-bag accuracies; None when every resample was
        skipped."""
        return float(self.accuracies.std()) if self.effective else None


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
    _check_count(resamples, "bootstrap stability", "resample")
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
    return BootstrapResult(accuracies=np.asarray(accs), requested=resamples)


# ---------------------------------------------------------------------------
# k-sweep benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    cv: CVReport
    robustness: list[float]  # per outer fold, in fold order
    bootstrap: BootstrapResult
    bootstrap_lam: float

    @property
    def accuracy_mean(self) -> float:
        return self.cv.mean_metric("accuracy")


@dataclass(frozen=True)
class SweepReport:
    dataset: str
    k_values: list[int]
    penalties: list[str]
    cells: dict[tuple[str, int], SweepCell]

    def summary_rows(self) -> list[dict]:
        """One row per penalty, keyed by ``bench_summary.csv``'s header in
        column order: the best k by accuracy and by noise robustness (ties
        go to the smaller k), and by bootstrap stability, the smallest std.
        The last is chosen among the cells with a bootstrap std, and is None
        (with its std) when no cell has one."""
        cells = self.cell_rows()
        rows = []
        for pen in self.penalties:
            mine = [r for r in cells if r["penalty"] == pen]
            best_acc = max(mine, key=lambda r: (r["accuracy_mean"], -r["k"]))
            best_rob = max(mine, key=lambda r: (r["robustness_mean"], -r["k"]))
            stable = [r for r in mine if r["bootstrap_std"] is not None]
            best_stab = min(stable, key=lambda r: (r["bootstrap_std"], r["k"]),
                            default={"k": None, "bootstrap_std": None})
            rows.append({
                "Dataset": self.dataset,
                "Penalty": pen,
                "Best K (Acc)": best_acc["k"],
                "Accuracy": best_acc["accuracy_mean"],
                "Accuracy Std": best_acc["accuracy_std"],
                "Best K (Robust)": best_rob["k"],
                "Robustness Accuracy": best_rob["robustness_mean"],
                "Robustness Std": best_rob["robustness_std"],
                "Best K (Stab)": best_stab["k"],
                "Bootstrap Stability (Std)": best_stab["bootstrap_std"],
            })
        return rows

    def cell_rows(self) -> list[dict]:
        """One row per (penalty, k), keyed by ``bench_cells.csv``'s header."""
        rows = []
        for pen in self.penalties:
            for k in self.k_values:
                c = self.cells[(pen, k)]
                accuracy_mean, accuracy_std = c.cv.aggregate()["accuracy"]
                rows.append({
                    "dataset": self.dataset,
                    "penalty": pen,
                    "k": k,
                    "accuracy_mean": accuracy_mean,
                    "accuracy_std": accuracy_std,
                    "robustness_mean": float(np.mean(c.robustness)),
                    "robustness_std": float(np.std(c.robustness)),
                    "bootstrap_std": c.bootstrap.std,
                    "bootstrap_effective": c.bootstrap.effective,
                    "bootstrap_lam": c.bootstrap_lam,
                    "nonconverged_fits": len(c.cv.folds) - c.cv.fits_with_status("converged"),
                    "separable_fits": c.cv.fits_with_status("separable"),
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
    class_weighting: str = "off",
    noise_repeats: int = 10,
    bootstrap_resamples: int = 50,
    seed: int = 0,
    jobs: int = 1,
) -> SweepReport:
    """Benchmark protocol: per (penalty, k), nested-CV accuracy (5 outer by
    3 inner folds), noise robustness of the per-fold models at :data:`SIGMAS`,
    and bootstrap stability at the modal selected lambda.  The orders,
    penalties, noise and bootstrap settings are checked before the first fit;
    at least one order and one penalty are needed, and each may appear once."""
    _check_count(noise_repeats, "noise robustness", "repeat")
    _check_count(bootstrap_resamples, "bootstrap stability", "resample")
    k_values = [int(k) for k in k_range]
    penalties = list(penalties)
    _check_sweep(k_values, penalties)
    cells: dict[tuple[str, int], SweepCell] = {}
    for pen in penalties:
        for k in k_values:
            cv = nested_cv(
                dataset, k, pen,
                lambda_grid=lambda_grid,
                class_weighting=class_weighting,
                seed=seed,
                jobs=jobs,
            )

            # robustness: per outer fold, mean perturbed accuracy over SIGMAS and repeats
            fold_means = []
            for fold in cv.folds:
                rows = np.asarray(fold.test_rows, dtype=int)
                rob = noise_robustness(
                    fold.result.model, dataset.x[rows], dataset.y[rows],
                    repeats=noise_repeats,
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
            cells[(pen, k)] = SweepCell(cv=cv, robustness=fold_means, bootstrap=boot,
                                        bootstrap_lam=boot_lam)
    return SweepReport(
        dataset=dataset.name,
        k_values=k_values,
        penalties=penalties,
        cells=cells,
    )
