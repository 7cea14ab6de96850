"""Convex training of Shapley regression by damped orthant-wise Newton.

The objective is

    F(bias, I) = sum_i w_i * xent_i  +  lam * P(I)

with P = 0, ||I||_1, or ||I||_2^2 and w_i optional inverse-frequency class
weights.  The bias is never penalized.  The design has at most a few hundred
columns, so every iteration forms the exact Hessian of the smooth part,
solves the Newton system against the pseudo-gradient (the minimum-norm
subgradient, the plain gradient without an l1 term) and backtracks until the
Armijo condition holds; under l1 each trial point is projected onto the
orthant of the step, as in OWL-QN (Andrew & Gao 2007).  The objective trace
is non-increasing up to a rounding slack of a few ulps, and convergence means
a pseudo-gradient norm within ``tol``.  Everything is deterministic: zero
initialization, no stochastic steps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .basis import DesignMatrix, design_matrix, max_row_norm
from .data import Dataset
from .model import ShapleyModel, apply_normalization

logger = logging.getLogger(__name__)

PENALTIES = ("none", "l1", "l2")
CLASS_WEIGHTINGS = ("off", "inverse_frequency")


@dataclass(frozen=True)
class FitConfig:
    """Training hyperparameters.

    ``lam`` is the regularization strength multiplying the penalty; the
    reciprocal convention c = 1/lam is accepted through :meth:`with_c`.
    """

    penalty: str = "l2"
    lam: float = 1.0
    max_iters: int = 10_000
    tol: float = 1e-8
    class_weighting: str = "off"
    seed: int = 0

    def __post_init__(self):
        if self.penalty not in PENALTIES:
            raise ValueError(f"penalty must be one of {PENALTIES}, got '{self.penalty}'")
        if self.class_weighting not in CLASS_WEIGHTINGS:
            raise ValueError(
                f"class_weighting must be one of {CLASS_WEIGHTINGS}, got '{self.class_weighting}'"
            )
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.tol <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.penalty == "none" and self.lam != 0.0:
            object.__setattr__(self, "lam", 0.0)

    @classmethod
    def with_c(cls, c: float, **kwargs) -> "FitConfig":
        """Build a config from the reciprocal strength c = 1/lam."""
        if c <= 0:
            raise ValueError(f"c must be > 0, got {c}")
        return cls(lam=1.0 / c, **kwargs)


@dataclass(frozen=True)
class FitResult:
    model: ShapleyModel
    objective_trace: np.ndarray = field(repr=False)
    converged: bool
    iterations: int
    grad_norm: float

    @property
    def parameters(self) -> np.ndarray:
        """Full parameter vector [bias, indices...]."""
        return np.concatenate([[self.model.bias], self.model.indices])

    def report_dict(self, include_trace: bool = False) -> dict:
        out = {
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "grad_norm": float(self.grad_norm),
            "final_objective": float(self.objective_trace[-1]),
        }
        if include_trace:
            out["objective_trace"] = [float(v) for v in self.objective_trace]
        return out


def sample_weights(y: np.ndarray, class_weighting: str) -> np.ndarray:
    """Per-sample loss weights; inverse frequency gives each class half the mass."""
    y = np.asarray(y)
    if class_weighting == "off":
        return np.ones(y.size)
    pos = int(y.sum())
    neg = y.size - pos
    if pos == 0 or neg == 0:
        raise ValueError("inverse-frequency weighting needs both classes present")
    w = np.where(y == 1, y.size / (2.0 * pos), y.size / (2.0 * neg))
    return w


def _validate_labels(design_values: np.ndarray, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y)
    if not np.all(np.isin(y, (0, 1))):
        raise ValueError("labels must be binary 0/1")
    if y.shape[0] != design_values.shape[0]:
        raise ValueError("label count does not match design rows")
    if not np.all(np.isfinite(design_values)):
        raise ValueError("design matrix contains NaN or infinite entries")
    return y.astype(float)


def loss_and_gradient(
    params: tuple[float, np.ndarray],
    design: DesignMatrix | np.ndarray,
    y: np.ndarray,
    config: FitConfig,
) -> tuple[float, np.ndarray]:
    """Objective value and gradient at (bias, indices), as the solver sees them.

    The value includes the penalty.  The gradient covers the smooth part only:
    exact for 'none' and 'l2', and for 'l1' the non-smooth term is left out.
    Layout is [d/d_bias, d/d_indices...].
    """
    bias, indices = params
    phi = design.values if isinstance(design, DesignMatrix) else np.asarray(design, dtype=float)
    y = _validate_labels(phi, y)
    obj = _Objective(phi, y, sample_weights(y, config.class_weighting), config.penalty, config.lam)
    theta = np.concatenate([[bias], np.asarray(indices, dtype=float)])
    z = obj.logits(theta)
    return obj.value(theta, z), obj.gradient(theta, z)


def per_sample_losses(model: ShapleyModel, x_raw: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unweighted cross-entropy of each sample under a fitted model."""
    z = model.logit(x_raw)
    y = np.asarray(y, dtype=float)
    return np.logaddexp(0.0, z) - y * z


class _Objective:
    """Training objective over theta = [bias, indices], evaluated at the
    logits z = bias + phi @ indices."""

    def __init__(self, phi: np.ndarray, y: np.ndarray, w: np.ndarray,
                 penalty: str, lam: float):
        self.phi = phi
        self.y = y
        self.w = w
        self.l1 = lam if penalty == "l1" else 0.0
        self.l2 = lam if penalty == "l2" else 0.0

    def logits(self, theta: np.ndarray) -> np.ndarray:
        return theta[0] + self.phi @ theta[1:]

    def value(self, theta: np.ndarray, z: np.ndarray) -> float:
        """Full objective, penalty included."""
        coef = theta[1:]
        val = float(self.w @ (np.logaddexp(0.0, z) - self.y * z))
        return val + self.l2 * float(coef @ coef) + self.l1 * float(np.abs(coef).sum())

    def gradient(self, theta: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Gradient of the smooth part (loss plus any l2 term)."""
        residual = self.w * (expit(z) - self.y)
        grad = np.empty(theta.size)
        grad[0] = residual.sum()
        grad[1:] = self.phi.T @ residual + 2.0 * self.l2 * theta[1:]
        return grad

    def hessian(self, z: np.ndarray) -> np.ndarray:
        """Hessian of the smooth part; the l2 curvature is on the coefficient
        block only, since the bias is never penalized."""
        s = self.w * expit(z) * expit(-z)
        scaled = self.phi * np.sqrt(s)[:, None]
        dim = self.phi.shape[1] + 1
        hess = np.empty((dim, dim))
        hess[0, 0] = s.sum()
        hess[0, 1:] = hess[1:, 0] = self.phi.T @ s
        hess[1:, 1:] = scaled.T @ scaled
        hess[range(1, dim), range(1, dim)] += 2.0 * self.l2
        return hess

    def pseudo_gradient(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Minimum-norm subgradient of the full objective; the plain gradient
        when there is no l1 term."""
        if not self.l1:
            return grad
        coef, g = theta[1:], grad[1:]
        pg = grad.copy()
        pg[1:] = np.where(coef > 0, g + self.l1, np.where(
            coef < 0, g - self.l1, np.sign(g) * np.maximum(np.abs(g) - self.l1, 0.0)))
        return pg


# Hessian shifts, in units of the mean diagonal, tried in turn while the
# line search fails; every iteration starts again from the smallest.
_SHIFTS = (1e-12, 1e-8, 1e-4, 1.0)


def _line_search(obj: _Objective, theta: np.ndarray, value: float, pg: np.ndarray,
                 direction: np.ndarray, orthant: np.ndarray | None):
    """Armijo backtracking along ``direction``, each candidate projected onto
    ``orthant`` when there is one.  Returns (theta, z, value), or None when
    ``direction`` is not a descent direction or no step that moves theta is
    accepted."""
    if not pg @ direction < 0:
        return None
    slack = 4.0 * np.spacing(abs(value))  # rounding noise in the objective
    t = 1.0
    for _ in range(40):
        cand = theta + t * direction
        if orthant is not None:
            cand[1:][np.sign(cand[1:]) != orthant] = 0.0
        if np.array_equal(cand, theta):
            return None
        z = obj.logits(cand)
        cand_value = obj.value(cand, z)
        if cand_value <= value + 1e-4 * float(pg @ (cand - theta)) + slack:
            return cand, z, cand_value
        t *= 0.5
    return None


def _newton(obj: _Objective, tol: float, max_iters: int):
    """Damped orthant-wise Newton from zero.
    Returns (theta, trace, converged, iterations, residual).

    Each iteration solves the Newton system of the smooth part on the free
    coordinates (the bias, every nonzero coefficient and, under l1, every zero
    coefficient whose gradient exceeds lam) against the pseudo-gradient, and
    backtracks.  Under l1 the step stays in the orthant the iterate and the
    pseudo-gradient pick, where the objective is smooth.  With no l1 term this
    is plain damped Newton.  The residual is the pseudo-gradient norm.
    """
    dim = obj.phi.shape[1] + 1
    theta = np.zeros(dim)
    z = obj.logits(theta)
    value = obj.value(theta, z)
    trace = [value]
    converged = False
    it = 0
    while True:
        grad = obj.gradient(theta, z)
        pg = obj.pseudo_gradient(theta, grad)
        residual = float(np.linalg.norm(pg))
        if residual <= tol:
            converged = True
            break
        if it == max_iters:
            break
        it += 1

        free = np.ones(dim, dtype=bool)
        orthant = None
        if obj.l1:
            coef = theta[1:]
            released = (coef == 0) & (np.abs(grad[1:]) > obj.l1)
            free[1:] = (coef != 0) | released
            orthant = np.where(released, -np.sign(pg[1:]), np.sign(coef))
        hess = obj.hessian(z)[np.ix_(free, free)]
        scale = float(np.trace(hess)) / hess.shape[0]

        step = None
        for shift in _SHIFTS:
            try:
                newton = np.linalg.solve(hess + shift * scale * np.eye(hess.shape[0]), pg[free])
            except np.linalg.LinAlgError:
                continue
            direction = np.zeros(dim)
            direction[free] = -newton
            if obj.l1:
                # a released zero may only move downhill along its pseudo-gradient
                direction[1:][released & (direction[1:] * pg[1:] > 0)] = 0.0
            step = _line_search(obj, theta, value, pg, direction, orthant)
            if step is not None:
                break
        if step is None:
            break
        theta, z, value = step
        trace.append(value)
    return theta, np.asarray(trace), converged, it, residual


def learn_normalization(x: np.ndarray) -> np.ndarray:
    """Per-feature (min, max) pairs from training data."""
    x = np.asarray(x, dtype=float)
    return np.column_stack([x.min(axis=0), x.max(axis=0)])


def fit(dataset: Dataset, k: int, config: FitConfig) -> FitResult:
    """Fit a k-additive Shapley regression on a dataset.

    Normalization bounds come from the given data only.  Non-convergence
    within ``config.max_iters`` is reported through the result, not raised.
    """
    neg, pos = dataset.class_counts()
    if pos < 2 or neg < 2:
        raise ValueError(
            f"need at least 2 samples of each class, got {neg} negative / {pos} positive"
        )
    normalization = learn_normalization(dataset.x)
    x_norm = apply_normalization(dataset.x, normalization)
    design = design_matrix(x_norm, k)
    y = _validate_labels(design.values, dataset.y)
    w = sample_weights(dataset.y, config.class_weighting)

    obj = _Objective(design.values, y, w, config.penalty, config.lam)
    theta, trace, converged, iterations, residual = _newton(obj, config.tol, config.max_iters)
    if not converged:
        logger.info(
            "fit on '%s' (k=%d, %s, lam=%g) stopped at %d iterations (%s) with "
            "residual %.3e > tol %g",
            dataset.name, k, config.penalty, config.lam, iterations,
            "iteration budget" if iterations == config.max_iters else "no descent step",
            residual, config.tol,
        )
    model = ShapleyModel(
        feature_names=list(dataset.feature_names),
        k=k,
        bias=float(theta[0]),
        indices=theta[1:],
        normalization=normalization,
    )
    return FitResult(
        model=model,
        objective_trace=trace,
        converged=converged,
        iterations=iterations,
        grad_norm=residual,
    )


@dataclass(frozen=True)
class LabelFlipStudy:
    """Refit sensitivity under single-label flips.

    ``shifts`` holds the Euclidean distance between the full parameter vectors
    (bias + indices) of the base fit and each flipped refit;
    ``max_index_shifts`` the largest per-coalition coefficient change, which
    can never exceed the corresponding entry of ``shifts``;
    ``risk_diffs`` the change of the empirical mean cross-entropy over the
    original samples, the quantity the stability bound
    ``stability_ceiling`` = 2 L^2 / (lam N) controls (L = max design-row
    norm); ``mean_abs_loss_diffs`` the coarser mean of per-sample absolute
    loss changes, kept for diagnostics.
    """

    base: FitResult
    shifts: np.ndarray
    max_index_shifts: np.ndarray
    risk_diffs: np.ndarray
    mean_abs_loss_diffs: np.ndarray
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
        return float(np.median(self.shifts))


def sensitivity_to_label_flip(
    dataset: Dataset, k: int, config: FitConfig, repeats: int = 20
) -> LabelFlipStudy:
    """Flip one uniformly chosen label per repeat, refit, and measure shifts.

    The flipped row of each repeat derives from (config.seed, repeat), so the
    study is reproducible and repeats are independent of execution order.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    base = fit(dataset, k, config)
    base_params = base.parameters

    design = design_matrix(base.model.normalize(dataset.x), k)
    row_norm = max_row_norm(design)
    ceiling = (
        2.0 * row_norm**2 / (config.lam * dataset.n_samples)
        if config.lam > 0 else np.inf
    )

    base_losses = per_sample_losses(base.model, dataset.x, dataset.y)

    shifts = np.empty(repeats)
    max_index_shifts = np.empty(repeats)
    risk_diffs = np.empty(repeats)
    mean_abs_loss_diffs = np.empty(repeats)
    flipped = np.empty(repeats, dtype=int)
    children = np.random.SeedSequence(config.seed).spawn(repeats)
    for r in range(repeats):
        rng = np.random.default_rng(children[r])
        row = int(rng.integers(dataset.n_samples))
        flipped[r] = row
        y_flipped = dataset.y.copy()
        y_flipped[row] = 1 - y_flipped[row]
        flipped_ds = Dataset(
            x=dataset.x, y=y_flipped,
            feature_names=list(dataset.feature_names),
            name=dataset.name + f"_flip{row}",
        )
        refit = fit(flipped_ds, k, config)
        delta = refit.parameters - base_params
        shifts[r] = np.linalg.norm(delta)
        max_index_shifts[r] = np.abs(delta[1:]).max()
        losses = per_sample_losses(refit.model, dataset.x, dataset.y)
        risk_diffs[r] = abs(losses.mean() - base_losses.mean())
        mean_abs_loss_diffs[r] = np.abs(losses - base_losses).mean()

    return LabelFlipStudy(
        base=base,
        shifts=shifts,
        max_index_shifts=max_index_shifts,
        risk_diffs=risk_diffs,
        mean_abs_loss_diffs=mean_abs_loss_diffs,
        stability_ceiling=ceiling,
        flipped_rows=flipped,
    )
