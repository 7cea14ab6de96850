"""Convex training of Shapley regression by monotone accelerated proximal gradient.

The objective is

    F(bias, I) = sum_i w_i * xent_i  +  lam * P(I)

with P = 0, ||I||_1, or ||I||_2^2 and w_i optional inverse-frequency class
weights.  The bias is never penalized.  The solver is a full-batch FISTA
variant with backtracking that replaces any accelerated step that would raise
the objective by a plain descent step, so the objective trace is
non-increasing by construction.  Everything is deterministic: zero
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
    exact for 'none' and 'l2', and for 'l1' the non-smooth term is left to the
    proximal step.  Layout is [d/d_bias, d/d_indices...].
    """
    bias, indices = params
    phi = design.values if isinstance(design, DesignMatrix) else np.asarray(design, dtype=float)
    y = _validate_labels(phi, y)
    obj = _Objective(phi, y, sample_weights(y, config.class_weighting), config.penalty, config.lam)
    theta = np.concatenate([[bias], np.asarray(indices, dtype=float)])
    value, grad = obj.smooth_value_grad(theta)
    return value + obj.nonsmooth(theta), grad


def per_sample_losses(model: ShapleyModel, x_raw: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unweighted cross-entropy of each sample under a fitted model."""
    z = model.logit(x_raw)
    y = np.asarray(y, dtype=float)
    return np.logaddexp(0.0, z) - y * z


class _Objective:
    """Smooth part of the training objective over theta = [bias, indices]."""

    def __init__(self, phi: np.ndarray, y: np.ndarray, w: np.ndarray,
                 penalty: str, lam: float):
        self.phi = phi
        self.y = y
        self.w = w
        self.penalty = penalty
        self.lam = lam
        self.l2 = lam if penalty == "l2" else 0.0

    def smooth_value(self, theta: np.ndarray) -> float:
        z = theta[0] + self.phi @ theta[1:]
        val = float(self.w @ (np.logaddexp(0.0, z) - self.y * z))
        if self.l2:
            val += self.l2 * float(theta[1:] @ theta[1:])
        return val

    def smooth_value_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        z = theta[0] + self.phi @ theta[1:]
        val = float(self.w @ (np.logaddexp(0.0, z) - self.y * z))
        residual = self.w * (expit(z) - self.y)
        grad = np.empty(theta.size)
        grad[0] = residual.sum()
        grad[1:] = self.phi.T @ residual
        if self.l2:
            val += self.l2 * float(theta[1:] @ theta[1:])
            grad[1:] += 2.0 * self.l2 * theta[1:]
        return val, grad

    def nonsmooth(self, theta: np.ndarray) -> float:
        if self.penalty == "l1":
            return self.lam * float(np.abs(theta[1:]).sum())
        return 0.0

    def total(self, theta: np.ndarray) -> float:
        return self.smooth_value(theta) + self.nonsmooth(theta)

    def prox(self, point: np.ndarray, step: float, metric: np.ndarray) -> np.ndarray:
        if self.penalty != "l1":
            return point
        out = point.copy()
        t = step * self.lam / metric[1:]
        out[1:] = np.sign(out[1:]) * np.maximum(np.abs(out[1:]) - t, 0.0)
        return out

    def metric(self) -> np.ndarray:
        """Per-coordinate curvature bounds [bias, coef, coef, ...].

        A block-diagonal majorant of the Hessian: twice the per-block bounds
        covers the bias/coefficient cross terms, and keeping the penalty
        curvature in the coefficient block only stops a large lam from
        throttling the unpenalized bias direction.
        """
        sw = np.sqrt(self.w)
        v = np.ones(self.phi.shape[1])
        v /= np.linalg.norm(v)
        sigma = 1.0
        for _ in range(40):
            av = sw * (self.phi @ v)
            atv = self.phi.T @ (sw * av)
            sigma = float(np.linalg.norm(atv))
            if sigma == 0.0:
                break
            v = atv / sigma
        coef_block = 2.0 * 0.25 * sigma * 1.02 + 2.0 * self.l2 + 1e-12
        bias_block = 2.0 * 0.25 * float(self.w.sum()) + 1e-12
        m = np.full(self.phi.shape[1] + 1, coef_block)
        m[0] = bias_block
        return m

    def optimality_residual(self, theta: np.ndarray, metric: np.ndarray) -> float:
        """Gradient norm for smooth penalties; for l1, the norm of the
        proximal-gradient fixed-point residual (theta - prox(theta - s*grad))/s
        at the reference step s = 1/max(metric)."""
        _, grad = self.smooth_value_grad(theta)
        if self.penalty != "l1":
            return float(np.linalg.norm(grad))
        s = 1.0 / float(metric.max())
        moved = self.prox(theta - s * grad, s, np.ones_like(theta))
        return float(np.linalg.norm(theta - moved) / s)


def _backtracked_step(obj: _Objective, point: np.ndarray, f_pt: float,
                      g_pt: np.ndarray, step: float, metric: np.ndarray):
    """Scaled proximal step from ``point`` with the largest step satisfying
    the quadratic majorization there.  Returns (z, f_z, step)."""
    for _ in range(60):
        z = obj.prox(point - (step / metric) * g_pt, step, metric)
        dz = z - point
        f_z = obj.smooth_value(z)
        if f_z <= f_pt + g_pt @ dz + (metric * dz) @ dz / (2.0 * step) + 1e-12:
            return z, f_z, step
        step *= 0.5
    return z, f_z, step


def _minimize(obj: _Objective, dim: int, tol: float, max_iters: int):
    """Monotone accelerated proximal gradient in a fixed diagonal metric.
    Returns (theta, trace, converged, iterations, residual).

    Accelerated steps that would raise the objective are replaced by a plain
    descent step from the current iterate, so the trace is non-increasing and
    the iterate keeps moving even when objective differences fall below float
    resolution.
    """
    metric = obj.metric()
    x = np.zeros(dim)
    x_prev = x
    y_pt = x
    t_momentum = 1.0
    step = 1.0

    obj_x = obj.total(x)
    trace = [obj_x]
    converged = False
    residual = np.inf
    it = 0

    for it in range(1, max_iters + 1):
        step *= 1.1  # probe a larger step; backtracking pulls it back if needed
        f_y, g_y = obj.smooth_value_grad(y_pt)
        z, f_z, step = _backtracked_step(obj, y_pt, f_y, g_y, step, metric)
        total_z = f_z + obj.nonsmooth(z)
        surrogate = np.linalg.norm(z - y_pt) / step

        if total_z <= obj_x:
            x_new, obj_new = z, total_z
            t_new = (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2)) / 2.0
            y_pt = x_new + (t_momentum / t_new) * (z - x_new) \
                + ((t_momentum - 1.0) / t_new) * (x_new - x_prev)
        else:
            # momentum overshot: plain descent step from x, restart momentum
            f_x, g_x = obj.smooth_value_grad(x)
            z, f_z, step = _backtracked_step(obj, x, f_x, g_x, step, metric)
            surrogate = np.linalg.norm(z - x) / step
            x_new = z
            obj_new = f_z + obj.nonsmooth(z)
            t_new = 1.0
            y_pt = x_new
        x_prev, x, obj_x = x, x_new, obj_new
        t_momentum = t_new
        trace.append(obj_x)

        # formal residual check when the cheap surrogate is small (or periodically)
        if surrogate <= 100 * tol or it % 100 == 0:
            residual = obj.optimality_residual(x, metric)
            if residual <= tol:
                converged = True
                break

    if not converged:
        residual = obj.optimality_residual(x, metric)
        converged = residual <= tol
    return x, np.asarray(trace), converged, it, residual


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
    theta, trace, converged, iterations, residual = _minimize(
        obj, design.values.shape[1] + 1, config.tol, config.max_iters
    )
    if not converged:
        logger.info(
            "fit on '%s' (k=%d, %s, lam=%g) stopped at %d iterations with "
            "residual %.3e > tol %g",
            dataset.name, k, config.penalty, config.lam, iterations, residual, config.tol,
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
