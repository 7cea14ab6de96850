"""Interaction-matrix aggregation across fitted models, and capacity measures
(combinatorial vs effective dimension, plug-in generalization-bound curves,
noise-label gap experiments)."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, log, sqrt

import numpy as np

from .basis import DesignMatrix, design_matrix
from .data import gen_random_noise
from .model import ShapleyModel, apply_normalization
from .parallel import map_ordered
from .train import FitConfig, fit, learn_normalization


# ---------------------------------------------------------------------------
# interaction aggregation
# ---------------------------------------------------------------------------

def _check_compatible(models: list[ShapleyModel]) -> ShapleyModel:
    if not models:
        raise ValueError("need at least one model")
    first = models[0]
    for m in models[1:]:
        if (m.n, m.k, tuple(m.feature_names)) != (first.n, first.k, tuple(first.feature_names)):
            raise ValueError("models disagree on (n, k, feature_names)")
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


def consensus_interactions(models: list[ShapleyModel], zero_tol: float = 1e-8) -> InteractionMatrix:
    """Average the pair indices of several models into one symmetric matrix.

    Support counts |I({i,j})| > zero_tol per model.  Dense (l2) fits rarely
    produce exact zeros, so supports are only informative under l1 or with a
    deliberately larger tolerance.
    """
    first = _check_compatible(models)
    if first.k < 2:
        raise ValueError("pair interactions need models with k >= 2")
    n = first.n
    n_pairs = comb(n, 2)
    pair_block = slice(n, n + n_pairs)
    stacked = np.stack([m.indices[pair_block] for m in models])

    mean = np.zeros((n, n))
    support = np.zeros((n, n))
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            mean[i, j] = mean[j, i] = stacked[:, pos].mean()
            frac = float((np.abs(stacked[:, pos]) > zero_tol).mean())
            support[i, j] = support[j, i] = frac
            pos += 1
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
        mean=matrix.mean[sub].copy(),
        support=matrix.support[sub].copy(),
    )


# ---------------------------------------------------------------------------
# capacity measures and bound curves
# ---------------------------------------------------------------------------

def combinatorial_dimension(n: int, k: int) -> int:
    """Parameter count sum_{j=1..k} C(n, j) (bias excluded)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return sum(comb(n, j) for j in range(1, k + 1))


def effective_dimension(design: DesignMatrix | np.ndarray) -> float:
    """Stable rank of the empirical (uncentered) second-moment matrix:
    (tr S)^2 / tr(S^2) with S = Phi^T Phi / N.

    Equals the column count only when all eigenvalues coincide; correlated
    basis columns pull it far below that.
    """
    phi = design.values if isinstance(design, DesignMatrix) else np.asarray(design, dtype=float)
    if phi.ndim != 2 or phi.shape[0] < 2:
        raise ValueError("effective_dimension needs a 2-D design with at least 2 rows")
    second_moment = phi.T @ phi / phi.shape[0]
    trace = float(np.trace(second_moment))
    if trace <= 0.0:
        raise ValueError("zero design matrix has no effective dimension")
    frob_sq = float((second_moment ** 2).sum())
    return trace ** 2 / frob_sq


def bound_report(exp: "GapExperiment", norm_bound: float, lipschitz: float) -> list[dict]:
    """Per-k table joining capacity measures, plug-in bound values, and the
    measured generalization gaps of a gap experiment."""
    curves = bound_curves(exp.n, exp.big_n, exp.k_values, exp.lam, norm_bound, lipschitz)
    rows = []
    for curve in curves:
        k = curve["k"]
        row = dict(curve)
        row["d_eff"] = exp.d_eff[k]
        for pen in exp.penalties:
            row[f"empirical_gap_{pen}"] = exp.cells[(k, pen)].mean_gap
        rows.append(row)
    return rows


def bound_curves(n: int, big_n: int, k_range, lam: float, norm_bound: float,
                 lipschitz: float) -> list[dict]:
    """Plug-in generalization-bound curves per additivity order.

    vc         ~ sqrt(D_k / N)                      (parameter counting)
    rademacher = 2 B sqrt(2 ln(2 D_k) / N)          (l1 ball of radius B)
    stability  = 2 L^2 / (lam N)                    (l2, independent of k)
    """
    if big_n < 1 or lam <= 0 or norm_bound < 0 or lipschitz < 0:
        raise ValueError("arguments must be positive (norm bound and Lipschitz >= 0)")
    rows = []
    for k in k_range:
        d_k = combinatorial_dimension(n, k)
        rows.append({
            "k": int(k),
            "D_k": d_k,
            "vc": sqrt(d_k / big_n),
            "rademacher": 2.0 * norm_bound * sqrt(2.0 * log(2.0 * d_k) / big_n),
            "stability": 2.0 * lipschitz ** 2 / (lam * big_n),
        })
    return rows


# ---------------------------------------------------------------------------
# generalization-gap experiment on pure noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapCell:
    k: int
    penalty: str
    gaps: np.ndarray
    train_errors: np.ndarray
    test_errors: np.ndarray
    converged_fits: int

    @property
    def mean_gap(self) -> float:
        return float(self.gaps.mean())

    @property
    def std_gap(self) -> float:
        return float(self.gaps.std())


@dataclass(frozen=True)
class GapExperiment:
    n: int
    big_n: int
    iterations: int
    seed: int
    lam: float
    k_values: list[int]
    penalties: list[str]
    d_k: dict[int, int]
    d_eff: dict[int, float]       # mean over iterations, from the train design
    cells: dict[tuple[int, str], GapCell]

    def rows(self) -> list[dict]:
        out = []
        for k in self.k_values:
            row = {"k": k, "D_k": self.d_k[k], "d_eff": self.d_eff[k]}
            for pen in self.penalties:
                cell = self.cells[(k, pen)]
                row[f"gap_{pen}"] = cell.mean_gap
                row[f"gap_{pen}_std"] = cell.std_gap
            out.append(row)
        return out


def gap_experiment(
    n: int,
    big_n: int,
    k_range,
    penalties=("none", "l2"),
    iterations: int = 10,
    seed: int = 0,
    lam: float = 1.0,
    split: bool = True,
    jobs: int = 1,
) -> GapExperiment:
    """Train/test 0-1 error gaps on pure-noise data, per (k, penalty).

    Each iteration draws X ~ U[0,1]^n with fair-coin labels, splits into equal
    halves, fits every configuration on the first half, and scores both
    halves.  ``split=False`` is a diagnostic mode where train and test
    coincide, forcing a zero gap.  Per-iteration seeds derive from the root
    seed, so results are independent of scheduling.
    """
    if split and big_n % 2 != 0:
        raise ValueError("N must be even to split into equal halves")
    k_values = [int(k) for k in k_range]
    penalties = list(penalties)
    children = np.random.SeedSequence(seed).spawn(iterations)

    def one_iteration(child):
        ds = gen_random_noise(n, big_n, seed=child)
        if split:
            half = big_n // 2
            train = ds.subset(np.arange(half))
            test = ds.subset(np.arange(half, big_n))
        else:
            train = test = ds
        out = {}
        deffs = {}
        x_norm = apply_normalization(train.x, learn_normalization(train.x))
        for k in k_values:
            design = design_matrix(x_norm, k)
            deffs[k] = effective_dimension(design)
            for pen in penalties:
                config = FitConfig(penalty=pen, lam=lam)
                result = fit(train, k, config)
                train_err = float((result.model.predict(train.x) != train.y).mean())
                test_err = float((result.model.predict(test.x) != test.y).mean())
                out[(k, pen)] = (train_err, test_err, result.converged)
        return out, deffs

    results = map_ordered(one_iteration, children, jobs=jobs)

    cells = {}
    for k in k_values:
        for pen in penalties:
            train_errs = np.array([res[0][(k, pen)][0] for res in results])
            test_errs = np.array([res[0][(k, pen)][1] for res in results])
            cells[(k, pen)] = GapCell(
                k=k, penalty=pen,
                gaps=test_errs - train_errs,
                train_errors=train_errs,
                test_errors=test_errs,
                converged_fits=sum(res[0][(k, pen)][2] for res in results),
            )
    d_eff = {k: float(np.mean([res[1][k] for res in results])) for k in k_values}
    return GapExperiment(
        n=n, big_n=big_n, iterations=iterations, seed=seed, lam=lam,
        k_values=k_values, penalties=penalties,
        d_k={k: combinatorial_dimension(n, k) for k in k_values},
        d_eff=d_eff,
        cells=cells,
    )
