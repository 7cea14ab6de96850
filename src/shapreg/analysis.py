"""Interaction-matrix aggregation across fitted models, capacity measures
(combinatorial vs effective dimension, noise-label gap experiments) and
label-flip stability studies beside the empirical ceiling 2 L^2 / (lam N),
L the largest row norm of the study's design.

2 L^2 / (lam N) is the stability rate of a mean loss plus lam ||w||^2
(Shalev-Shwartz & Ben-David 2014, Cor. 13.6), applied here to the lam of the
solver's sum loss; no cited theorem guarantees it at that scale.
Acceptance criterion 7 checks it as an empirical ceiling on the label-flip
risk differences: on that criterion's data the largest difference stays
under it by a factor of 4 (C = 0.01) to 388 (C = 100)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import comb

import numpy as np

from .data import Dataset, gen_random_noise
from .games import num_coalitions
from .model import ShapleyModel
from .parallel import map_ordered
from .train import STATUSES, FitConfig, at_order, fit, prepare


# ---------------------------------------------------------------------------
# interaction aggregation
# ---------------------------------------------------------------------------

# the largest |I({i,j})| a model's pair support counts as zero
ZERO_TOL = 1e-8


def disagreements(a: ShapleyModel, b: ShapleyModel) -> str:
    """Which of n, k and feature_names, the fields that models aggregated
    together share, differ between two models, each with its value in ``a``
    and then in ``b``; empty when they agree."""
    return "; ".join(f"{name}: {getattr(a, name)!r} vs {getattr(b, name)!r}"
                     for name in ("n", "k", "feature_names")
                     if getattr(a, name) != getattr(b, name))


def _check_compatible(models: list[ShapleyModel]) -> ShapleyModel:
    if not models:
        raise ValueError("need at least one model")
    first = models[0]
    for i, m in enumerate(models[1:], 1):
        differences = disagreements(first, m)
        if differences:
            raise ValueError(f"models 0 and {i} disagree on {differences}")
    return first


def main_effects(models: list[ShapleyModel]) -> list[tuple[str, float, float]]:
    """Per-feature mean and std of the singleton indices across models,
    ranked by mean, descending.  Ties keep canonical feature order."""
    first = _check_compatible(models)
    singles = np.stack([m.indices[: first.n] for m in models])
    means = singles.mean(axis=0)
    stds = singles.std(axis=0)
    order = sorted(range(first.n), key=lambda i: (-means[i], i))
    return [(first.feature_names[i], float(means[i]), float(stds[i])) for i in order]


@dataclass(frozen=True)
class InteractionMatrix:
    """Symmetric pair-interaction summary across models.

    ``mean[i, j]`` averages I({i,j}); ``support[i, j]`` is the fraction of
    models where that coefficient was non-zero (beyond a tolerance).  The
    diagonal of ``mean`` is zero by construction.
    """

    names: list[str]
    mean: np.ndarray = field(repr=False)
    support: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.names)

    def strengths(self) -> np.ndarray:
        """Total interaction strength per feature: sum_j |mean[i, j]|."""
        return np.abs(self.mean).sum(axis=1)


def consensus_interactions(models: list[ShapleyModel]) -> InteractionMatrix:
    """Average the pair indices of several models into one symmetric matrix.

    Support counts |I({i,j})| > :data:`ZERO_TOL` per model.  Dense (l2) fits
    rarely produce exact zeros, so supports are only informative under l1.
    """
    first = _check_compatible(models)
    if first.k < 2:
        raise ValueError("pair interactions need models with k >= 2")
    n = first.n
    # one row per pair, in canonical (i < j) order, one column per model
    stacked = np.stack([m.indices[n:n + comb(n, 2)] for m in models], axis=1)
    rows, cols = np.triu_indices(n, 1)
    mean = np.zeros((n, n))
    support = np.zeros((n, n))
    mean[rows, cols] = mean[cols, rows] = stacked.mean(axis=1)
    support[rows, cols] = support[cols, rows] = (np.abs(stacked) > ZERO_TOL).mean(axis=1)
    return InteractionMatrix(names=list(first.feature_names), mean=mean, support=support)


def filter_stable(matrix: InteractionMatrix, min_support: float) -> InteractionMatrix:
    """Zero out mean entries observed in fewer than ``min_support`` of the
    models; the support matrix itself is left intact."""
    if not 0.0 <= min_support <= 1.0:
        raise ValueError(f"min_support must be in [0, 1], got {min_support}")
    mean = np.where(matrix.support >= min_support, matrix.mean, 0.0)
    np.fill_diagonal(mean, 0.0)
    return InteractionMatrix(names=list(matrix.names), mean=mean, support=matrix.support.copy())


def top_by_strength(matrix: InteractionMatrix, top_k: int) -> InteractionMatrix:
    """Restrict to the ``top_k`` features with the largest total interaction
    strength; ties break toward the lower feature index.  The selected
    features keep their original relative order."""
    if not 1 <= top_k <= matrix.n:
        raise ValueError(f"top_k must be in [1, {matrix.n}], got {top_k}")
    strengths = matrix.strengths()
    ranked = sorted(range(matrix.n), key=lambda i: (-strengths[i], i))[:top_k]
    keep = sorted(ranked)
    sub = np.ix_(keep, keep)
    return InteractionMatrix(
        names=[matrix.names[i] for i in keep],
        mean=matrix.mean[sub],
        support=matrix.support[sub],
    )


# ---------------------------------------------------------------------------
# capacity measures
# ---------------------------------------------------------------------------

def effective_dimension(design: np.ndarray) -> float:
    """Stable rank of the empirical (uncentered) second-moment matrix:
    (tr S)^2 / tr(S^2) with S = Phi^T Phi / N.

    Equals the column count only when all eigenvalues coincide; correlated
    basis columns pull it far below that.
    """
    phi = np.asarray(design, dtype=float)
    if phi.ndim != 2 or phi.shape[0] < 2:
        raise ValueError("effective_dimension needs a 2-D design with at least 2 rows")
    second_moment = phi.T @ phi
    second_moment /= phi.shape[0]
    trace = float(np.trace(second_moment))
    if trace <= 0.0:
        raise ValueError("zero design matrix has no effective dimension")
    frob_sq = float((second_moment ** 2).sum())
    return trace ** 2 / frob_sq


# ---------------------------------------------------------------------------
# label-flip stability
# ---------------------------------------------------------------------------

def stability_bound(lipschitz: float, lam: float, big_n: int) -> float:
    """2 L^2 / (lam N), for N rows of norm <= L.

    The uniform-stability rate of a mean loss plus lam ||w||^2 (Shalev-Shwartz
    & Ben-David 2014, Cor. 13.6), which :func:`sensitivity_to_label_flip`
    applies to the lam of the solver's sum loss, where no cited theorem
    guarantees it; acceptance criterion 7 checks it as an empirical ceiling.
    """
    return 2.0 * lipschitz ** 2 / (lam * big_n)


@dataclass(frozen=True)
class LabelFlipStudy:
    """Refit sensitivity under single-label flips.

    ``shifts`` holds the Euclidean distance between the full parameter vectors
    (bias + indices) of the base fit and each flipped refit;
    ``max_index_shifts`` the largest per-coalition coefficient change, which
    can never exceed the corresponding entry of ``shifts``;
    ``risk_diffs`` the change of the empirical mean cross-entropy over the
    original samples, which ``stability_ceiling`` caps empirically.

    ``stability_ceiling`` is :func:`stability_bound` at L = ``row_norm`` (the
    largest design-row norm of the normalized samples), the study's lam and
    N rows: the mean-loss rate applied to the solver's sum-loss lam, which no
    cited theorem guarantees at that scale.  Acceptance criterion 7 asserts
    it as an empirical ceiling; it is ``inf`` unless the penalty is l2 at
    lam > 0.
    """

    shifts: np.ndarray
    max_index_shifts: np.ndarray
    risk_diffs: np.ndarray
    row_norm: float
    stability_ceiling: float
    flipped_rows: np.ndarray

    @property
    def mean_shift(self) -> float:
        return float(self.shifts.mean())

    @property
    def std_shift(self) -> float:
        return float(self.shifts.std())

    @property
    def median_shift(self) -> float:
        """np.median of ``shifts``, by a sort: np.median's first call loads numpy.ma."""
        ordered = np.sort(self.shifts)
        mid = ordered.size // 2
        return float(ordered[mid] if ordered.size % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def _mean_risk(model: ShapleyModel, x_raw: np.ndarray, y: np.ndarray) -> float:
    """Mean unweighted cross-entropy of a fitted model over the samples."""
    z = model.logit(x_raw)
    return float((np.logaddexp(0.0, z) - np.asarray(y, dtype=float) * z).mean())


def sensitivity_to_label_flip(
    dataset: Dataset, k: int, config: FitConfig, repeats: int = 20, seed: int = 0
) -> LabelFlipStudy:
    """Flip one uniformly chosen label per repeat, refit, and measure shifts.

    The flipped row of each repeat derives from (seed, repeat), so the study
    is reproducible and repeats are independent of execution order.  A flip
    changes neither the rows nor their normalization, so the base fit and
    every cold refit share one prepared design.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    problem = prepare(dataset, k)
    base = fit(problem, k, config)
    base_params = base.parameters

    row_norm = float(np.sqrt((problem.design ** 2).sum(axis=1).max()))
    ceiling = (stability_bound(row_norm, config.lam, dataset.n_samples)
               if config.penalty == "l2" and config.lam > 0 else np.inf)

    base_risk = _mean_risk(base.model, dataset.x, dataset.y)

    shifts = np.empty(repeats)
    max_index_shifts = np.empty(repeats)
    risk_diffs = np.empty(repeats)
    flipped = np.empty(repeats, dtype=int)
    children = np.random.SeedSequence(seed).spawn(repeats)
    for r in range(repeats):
        rng = np.random.default_rng(children[r])
        row = int(rng.integers(dataset.n_samples))
        flipped[r] = row
        y_flipped = dataset.y.copy()
        y_flipped[row] = 1 - y_flipped[row]
        flipped_ds = replace(dataset, y=y_flipped, name=dataset.name + f"_flip{row}")
        refit = fit(replace(problem, dataset=flipped_ds), k, config)
        delta = refit.parameters - base_params
        shifts[r] = np.linalg.norm(delta)
        max_index_shifts[r] = np.abs(delta[1:]).max()
        risk_diffs[r] = abs(_mean_risk(refit.model, dataset.x, dataset.y) - base_risk)

    return LabelFlipStudy(
        shifts=shifts,
        max_index_shifts=max_index_shifts,
        risk_diffs=risk_diffs,
        row_norm=row_norm,
        stability_ceiling=ceiling,
        flipped_rows=flipped,
    )


# ---------------------------------------------------------------------------
# generalization-gap experiment on pure noise
# ---------------------------------------------------------------------------

# The protocol acceptance criterion 8 certifies, and the one bounds runs:
# 8-feature, 1000-row noise split into halves, orders k = 1..8, and the gaps
# of unregularized fits against ridge fits at strength 1.
GAP_N, GAP_SAMPLES, GAP_K_RANGE, GAP_LAMBDA = 8, 1000, tuple(range(1, 9)), 1.0
GAP_PENALTIES = ("none", "l2")
# the statuses counted in the reports: every fit that did not converge
UNCONVERGED = tuple(status for status in STATUSES if status != "converged")


@dataclass(frozen=True)
class GapCell:
    train_errors: np.ndarray
    test_errors: np.ndarray
    status_counts: dict[str, int]  # fits per solver status, every STATUSES key

    @property
    def gaps(self) -> np.ndarray:
        """Test minus train error, per iteration."""
        return self.test_errors - self.train_errors

    @property
    def mean_gap(self) -> float:
        return float(self.gaps.mean())

    @property
    def std_gap(self) -> float:
        return float(self.gaps.std())


@dataclass(frozen=True)
class GapExperiment:
    d_eff: dict[int, float]  # mean over iterations, from the train design
    cells: dict[tuple[int, str], GapCell]

    def rows(self) -> list[dict]:
        """One row per order, its keys in ``gap_experiment.csv``'s column
        order: the gaps per penalty of :data:`GAP_PENALTIES`, then per
        penalty the count of fits that stopped with each status but
        ``converged``, as ``{status}_fits_{penalty}``."""
        out = []
        for k in GAP_K_RANGE:
            row = {"k": k, "D_k": num_coalitions(GAP_N, k), "d_eff": self.d_eff[k]}
            for pen in GAP_PENALTIES:
                cell = self.cells[(k, pen)]
                row[f"gap_{pen}"] = cell.mean_gap
                row[f"gap_{pen}_std"] = cell.std_gap
            for pen in GAP_PENALTIES:
                for status in UNCONVERGED:
                    row[f"{status}_fits_{pen}"] = self.cells[(k, pen)].status_counts[status]
            out.append(row)
        return out


def gap_experiment(iterations: int = 10, seed: int = 0, jobs: int = 1) -> GapExperiment:
    """Train/test 0-1 error gaps on pure-noise data, per order k of
    :data:`GAP_K_RANGE` and penalty of :data:`GAP_PENALTIES`: unregularized
    against ridge at strength :data:`GAP_LAMBDA`.

    Each iteration draws :data:`GAP_SAMPLES` rows of :data:`GAP_N` uniform
    features with fair-coin labels, splits them into equal halves, fits every
    configuration on the first half, and scores both halves.  Per-iteration
    seeds derive from the root seed and every split is drawn before the
    fan-out; each iteration is then one task for ``jobs`` workers, and
    results are reassembled by cell, so they are independent of scheduling.

    A task prepares one design of the first half at the largest order; every
    lower order reads a column-prefix view of it (:func:`train.at_order`),
    which ``d_eff`` and every penalty's fit at that order share.  The orders
    are walked upward: each penalty's fit starts from its own fit at the next
    lower order, padded with zeros (the first order starts from zero).  A
    penalized fit reaches the same minimizer from any start; an unpenalized
    fit on separable rows has none and stops at its first separating iterate
    (status ``separable``), so its errors are that iterate's, and an order
    started from a separating fit below it stops at once.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    half = GAP_SAMPLES // 2
    splits = []
    for child in np.random.SeedSequence(seed).spawn(iterations):
        ds = gen_random_noise(GAP_N, GAP_SAMPLES, seed=child)
        splits.append((ds.subset(np.arange(half)), ds.subset(np.arange(half, GAP_SAMPLES))))

    def one_iteration(it):
        train, test = splits[it]
        top = prepare(train, GAP_K_RANGE[-1])
        d_eff, out = {}, {}
        start = dict.fromkeys(GAP_PENALTIES)
        for k in GAP_K_RANGE:
            problem = at_order(top, k)
            d_eff[k] = effective_dimension(problem.design)
            dim = problem.design.shape[1] + 1
            for pen in GAP_PENALTIES:
                prev = start[pen]
                result = fit(problem, k, FitConfig(penalty=pen, lam=GAP_LAMBDA),
                             start=None if prev is None else np.pad(prev, (0, dim - prev.size)))
                start[pen] = result.parameters
                train_err = float((result.model.predict(train.x) != train.y).mean())
                test_err = float((result.model.predict(test.x) != test.y).mean())
                out[(k, pen)] = (train_err, test_err, result.status)
        return d_eff, out

    results = map_ordered(one_iteration, range(iterations), jobs=jobs)

    cells = {}
    for k in GAP_K_RANGE:
        for pen in GAP_PENALTIES:
            per_it = [res[1][(k, pen)] for res in results]
            train_errs = np.array([train_err for train_err, _, _ in per_it])
            test_errs = np.array([test_err for _, test_err, _ in per_it])
            statuses = [status for _, _, status in per_it]
            cells[(k, pen)] = GapCell(
                train_errors=train_errs,
                test_errors=test_errs,
                status_counts={status: statuses.count(status) for status in STATUSES},
            )
    d_eff = {k: float(np.mean([res[0][k] for res in results])) for k in GAP_K_RANGE}
    return GapExperiment(d_eff=d_eff, cells=cells)
