"""Convex training of Shapley regression by damped proximal Newton.

The objective is

    F(bias, I) = sum_i w_i * xent_i  +  lam * P(I)

with P = 0, ||I||_1, or ||I||_2^2 and w_i optional inverse-frequency class
weights.  The bias is never penalized.  Designs are narrow (check_fit_size),
so every iteration forms the exact Hessian of the smooth part, steps
to the exact minimizer of its quadratic model plus the l1 term, and
backtracks until the Armijo condition holds (Lee, Sun & Saunders 2014).  The
l1 subproblem is solved by feature-sign search (Lee et al. 2007); without an
l1 term it is one solve of the Newton system.  The objective trace is
non-increasing up to a rounding slack of a few ulps, and convergence means a
pseudo-gradient (minimum-norm subgradient) norm within :data:`TOL`.  Without a
penalty term the objective has no minimizer once every row is strictly on
its label's side, so such a fit stops at the first separating iterate with
status ``separable`` (Albert & Anderson 1984).  Everything
is deterministic: zero initialization unless the caller passes a start, no
stochastic steps.  :func:`prepare` builds a training split's normalization
and design once; :func:`fit` solves one configuration on it, so a lambda path
can share the design and warm-start each fit from the previous solution, and
:func:`at_order` reads any lower order from the same design.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import DesignMatrix, design_matrix
from .data import Dataset
from .games import check_allocation, num_coalitions
from .model import ShapleyModel, apply_normalization, expit, learn_normalization

logger = logging.getLogger(__name__)

PENALTIES = ("none", "l1", "l2")
CLASS_WEIGHTINGS = ("off", "inverse_frequency")
# every fit stops once its pseudo-gradient norm is within TOL, or after
# MAX_ITERS Newton iterations; the solver reads both at each call
MAX_ITERS = 10_000
TOL = 1e-8
# why a fit stopped: within TOL, at MAX_ITERS, no step accepted, or at a
# separating iterate of an unpenalized objective (no finite minimizer)
STATUSES = ("converged", "budget", "no_descent", "separable")


@dataclass(frozen=True)
class FitConfig:
    """Training hyperparameters: the penalty, its strength ``lam`` (the
    reciprocal C of other libraries is 1/lam) and the class weighting.  The
    solver's tolerance and budget are the module constants :data:`TOL` and
    :data:`MAX_ITERS`, the same for every fit.
    """

    penalty: str = "l2"
    lam: float = 1.0
    class_weighting: str = "off"

    def __post_init__(self):
        if self.penalty not in PENALTIES:
            raise ValueError(f"penalty must be one of {PENALTIES}, got '{self.penalty}'")
        if self.class_weighting not in CLASS_WEIGHTINGS:
            raise ValueError(
                f"class_weighting must be one of {CLASS_WEIGHTINGS}, got '{self.class_weighting}'"
            )
        # written so that NaN fails the check
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.penalty == "none" and self.lam != 0.0:
            object.__setattr__(self, "lam", 0.0)

    @property
    def max_iters(self) -> int:
        """:data:`MAX_ITERS`, the budget this config's fits run under;
        ``perfbench/hooks.py`` reads it to count the fits that spent it."""
        return MAX_ITERS


@dataclass(frozen=True)
class FitResult:
    model: ShapleyModel
    objective_trace: np.ndarray = field(repr=False)
    status: str  # one of STATUSES
    iterations: int
    grad_norm: float

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def parameters(self) -> np.ndarray:
        """Full parameter vector [bias, indices...]."""
        return np.concatenate([[self.model.bias], self.model.indices])

    def report_dict(self) -> dict:
        return {
            "status": self.status,
            "converged": self.converged,
            "iterations": int(self.iterations),
            "grad_norm": float(self.grad_norm),
            "final_objective": float(self.objective_trace[-1]),
        }


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
    return obj.value(theta, z), obj.gradient(theta, expit(z))


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
        """Full objective, penalty included.  A penalty term is added only
        when its weight is nonzero: at a far line-search candidate its norm
        can overflow, and 0 * inf would make the value NaN."""
        coef = theta[1:]
        val = float(self.w @ (np.logaddexp(0.0, z) - self.y * z))
        if self.l2:
            val += self.l2 * float(coef @ coef)
        if self.l1:
            val += self.l1 * float(np.abs(coef).sum())
        return val

    def gradient(self, theta: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Gradient of the smooth part (loss plus any l2 term), given the
        probabilities p = expit(z) at the logits."""
        residual = self.w * (p - self.y)
        grad = np.empty(theta.size)
        grad[0] = residual.sum()
        grad[1:] = self.phi.T @ residual + 2.0 * self.l2 * theta[1:]
        return grad

    def hessian(self, z: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Hessian of the smooth part at the logits z, with p = expit(z); the
        l2 curvature is on the coefficient block only, since the bias is never
        penalized."""
        s = self.w * p * expit(-z)
        scaled = self.phi * np.sqrt(s)[:, None]
        dim = self.phi.shape[1] + 1
        hess = np.empty((dim, dim))
        hess[0, 0] = s.sum()
        hess[0, 1:] = hess[1:, 0] = self.phi.T @ s
        np.matmul(scaled.T, scaled, out=hess[1:, 1:])
        hess.flat[dim + 1::dim + 1] += 2.0 * self.l2
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
# line search fails; every iteration starts again from the smallest.  When
# every one fails and that diagonal is below 1, as at a saturated iterate
# whose logits all lie far from 0, they are tried once more in units of 1.
_SHIFTS = (1e-12, 1e-8, 1e-4, 1.0)


def _l1_change(theta: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """||cand[1:]||_1 - ||theta[1:]||_1 along the last axis of ``cand``.  A
    coordinate that keeps its sign contributes sign * (cand - theta), so a
    small step is not lost to the cancellation of two large norms."""
    t, c = theta[1:], cand[..., 1:]
    return np.where(c * t > 0, np.sign(t) * (c - t), np.abs(c) - np.abs(t)).sum(axis=-1)


def _newton_step(hess: np.ndarray, grad: np.ndarray, theta: np.ndarray,
                 lam: float) -> np.ndarray:
    """Exact minimizer d of the proximal Newton model

        q(d) = grad @ d + d @ hess @ d / 2 + lam * (||(theta + d)[1:]||_1 - ||theta[1:]||_1)

    for a positive definite ``hess``, by feature-sign search (Lee et al. 2007).
    The active set is the bias and the nonzeros of theta + d, with their
    signs.  Zero coordinates whose model gradient exceeds lam join it, with
    the sign that points downhill, at the start and whenever the model is
    minimal on the active set; joined coordinates the next solution moves
    against their sign stay at zero (at a minimum, exact arithmetic leaves at
    least one).  Each round solves the model with the signs fixed on the
    active set, every other coordinate of theta + d held at zero, and moves
    to the lowest point among that solution and the points where a
    coordinate changes sign on the way to it.  Without an l1 term the step is
    one full Newton solve, made directly.
    """
    if not lam:
        return -np.linalg.solve(hess, grad)
    dim = theta.size
    penalized = np.arange(dim) > 0
    sign = np.where(penalized, np.sign(theta), 0.0)
    active = ~penalized | (sign != 0)
    joined = np.zeros(dim, dtype=bool)
    d = np.zeros(dim)
    at_minimum = False  # d minimizes the model on the active set with these signs
    join = True  # look for coordinates to join before the next solve

    def model(points):
        return (points @ grad + 0.5 * ((points @ hess) * points).sum(axis=1)
                + lam * _l1_change(theta, theta + points))

    for _ in range(4 * dim):  # finite in exact arithmetic; this bounds rounding
        if join:
            slope = grad + hess @ d
            joined = penalized & ~active & (np.abs(slope) > lam)
            if at_minimum and not joined.any():
                break
            sign[joined] = -np.sign(slope[joined])
        free = active | joined
        rows = hess[free]
        rhs = grad[free] + lam * sign[free] + rows @ np.where(free, 0.0, d)
        solved = d.copy()
        solved[free] = -np.linalg.solve(rows[:, free], rhs)
        x_solved = theta + solved
        crossing = x_solved * sign < 0
        stray = crossing & joined
        if stray.any():
            if at_minimum and not (joined & ~stray).any():
                break  # only rounding can move every joined coordinate uphill
            sign[stray] = 0.0
            joined &= ~stray
            join = False
            continue
        if crossing.any():
            # the fraction of the segment at which each crossing coordinate
            # reaches zero; at its own cut it is put on zero exactly
            x = theta + d
            cut = np.full(dim, np.nan)
            cut[crossing] = x[crossing] / (x[crossing] - x_solved[crossing])
            # the distinct cuts in order, as np.unique (whose first call loads
            # numpy.ma) gives them
            fractions = np.sort(cut[crossing])
            fractions = np.append(fractions[np.append(True, fractions[1:] != fractions[:-1])], 1.0)
            points = d + fractions[:, None] * (solved - d)
            points[:-1] = np.where(cut == fractions[:-1, None], -theta, points[:-1])
            points[-1] = solved
            d, at_minimum = points[np.argmin(model(points))], False
        else:
            d, at_minimum = solved, True
        join = at_minimum
        joined[:] = False
        sign = np.where(penalized, np.sign(theta + d), 0.0)
        active = ~penalized | (sign != 0)
    return d


def _line_search(obj: _Objective, theta: np.ndarray, value: float, grad: np.ndarray,
                 direction: np.ndarray):
    """Armijo backtracking along ``direction``: a candidate is accepted when F
    drops by at least 1e-4 of the model decrease there, grad @ step +
    lam * (||cand||_1 - ||theta||_1), which at the full step is the proximal
    Newton decrement.  Returns (theta, z, value), or None when ``direction`` is
    not a descent direction or no step that moves theta is accepted."""

    def decrease(step):
        if not obj.l1:
            return grad @ step
        return grad @ step + obj.l1 * _l1_change(theta, theta + step)

    if not decrease(direction) < 0:
        return None
    slack = 4.0 * np.spacing(abs(value))  # rounding noise in the objective
    t = 1.0
    for _ in range(40):
        cand = theta + t * direction
        if np.array_equal(cand, theta):
            return None
        z = obj.logits(cand)
        cand_value = obj.value(cand, z)
        if cand_value <= value + 1e-4 * float(decrease(cand - theta)) + slack:
            return cand, z, cand_value
        t *= 0.5
    return None


def _newton(obj: _Objective, start: np.ndarray | None = None):
    """Damped proximal Newton from ``start`` (the zero vector by default), to
    a residual within :data:`TOL` in at most :data:`MAX_ITERS` iterations.
    Returns (theta, trace, status, iterations, residual), the status one of
    :data:`STATUSES`.

    Each iteration minimizes the quadratic model of the smooth part plus the
    l1 term exactly (:func:`_newton_step`; one Newton solve without an l1
    term) and backtracks along the step.  A step the line search rejects is
    retried with the Hessian shifted by growing multiples of its mean
    diagonal, and then, if that diagonal is below 1, of 1 (see
    :data:`_SHIFTS`).  The residual is the pseudo-gradient norm.

    Without a penalty term, an iterate whose logits put every row strictly
    on its label's side, y_i * z_i > 0 with y in {-1, +1}, certifies that
    the rows are separable: the weighted loss tends to 0 along that iterate's
    ray, so the infimum 0 is not attained and no finite minimizer exists.
    The loop stops there, before the convergence test, with ``separable``.
    """
    dim = obj.phi.shape[1] + 1
    theta = np.zeros(dim) if start is None else np.array(start, dtype=float)
    if theta.shape != (dim,) or not np.all(np.isfinite(theta)):
        raise ValueError(f"start must hold {dim} finite parameters, got shape {theta.shape}")
    signs = None if obj.l1 or obj.l2 else 2.0 * obj.y - 1.0
    z = obj.logits(theta)
    value = obj.value(theta, z)
    trace = [value]
    it = 0
    while True:
        p = expit(z)
        grad = obj.gradient(theta, p)
        residual = float(np.linalg.norm(obj.pseudo_gradient(theta, grad)))
        if signs is not None and np.all(signs * z > 0):
            status = "separable"
            break
        if residual <= TOL:
            status = "converged"
            break
        if it == MAX_ITERS:
            status = "budget"
            break
        it += 1

        hess = obj.hessian(z, p)
        scale = float(np.trace(hess)) / dim
        units = (scale,) if scale >= 1.0 else (scale, 1.0)
        diagonal = hess.diagonal().copy()
        step = None
        for shift in (s * unit for unit in units for s in _SHIFTS):
            hess.flat[::dim + 1] = diagonal + shift  # shifted in place, never accumulated
            try:
                direction = _newton_step(hess, grad, theta, obj.l1)
            except np.linalg.LinAlgError:
                continue
            step = _line_search(obj, theta, value, grad, direction)
            if step is not None:
                break
        del hess  # the next iteration's Hessian is formed without this one
        if step is None:
            status = "no_descent"
            break
        theta, z, value = step
        trace.append(value)
    return theta, np.asarray(trace), status, it, residual


@dataclass(frozen=True)
class Problem:
    """A dataset made ready for the solver at order k: the min-max
    normalization learned from its rows and the design of the normalized
    rows, both read-only arrays.  Built once by :func:`prepare`, it can be
    solved at any number of configurations, and for other labels on the same
    rows through ``dataclasses.replace(problem, dataset=relabelled)``."""

    dataset: Dataset
    k: int
    normalization: np.ndarray = field(repr=False)
    design: np.ndarray = field(repr=False)


def check_fit_size(n: int, k: int) -> None:
    """Raise ValueError, before anything is allocated, if an order-k fit on n
    features needs more than games.MAX_ALLOCATION_BYTES for its dense
    (D + 1) x (D + 1) Newton system (never smaller than its subset table).

    The budget charges that one system.  A smooth iteration also holds
    LAPACK's copy of it while it is solved and, while it is formed, the
    N x D design scaled by the curvature weights, so a fit just under the
    limit needs about twice the budget plus the design."""
    check_allocation(n, k, "dense Newton system", 8 * (num_coalitions(n, k) + 1) ** 2)


def prepare(dataset: Dataset, k: int) -> Problem:
    """Normalize a dataset by bounds learned from its own rows and build the
    order-k design, once for every fit on these rows, whatever their labels."""
    check_fit_size(dataset.n_features, k)
    normalization = learn_normalization(dataset.x)
    design = design_matrix(apply_normalization(dataset.x, normalization), k).values
    for shared in (normalization, design):  # read by every fit on the problem
        shared.setflags(write=False)
    return Problem(dataset=dataset, k=k, normalization=normalization, design=design)


def at_order(problem: Problem, k: int) -> Problem:
    """The same rows at an order ``k`` up to the problem's own.  The order-k
    design is bit for bit the first D_k columns of every higher order's
    design (the subset table and the inversion weights grow order by order),
    so the returned problem shares the normalization and reads a read-only
    view of those columns: one design serves every lower order."""
    if not 1 <= k <= problem.k:
        raise ValueError(f"k must be in [1, {problem.k}], got {k}")
    columns = num_coalitions(problem.dataset.n_features, k)
    return replace(problem, k=k, design=problem.design[:, :columns])


def fit(data: Dataset | Problem, k: int, config: FitConfig,
        start: np.ndarray | None = None) -> FitResult:
    """Fit a k-additive Shapley regression on a dataset.

    ``data`` is a :class:`Dataset`, prepared here, or a :class:`Problem` from
    :func:`prepare`, whose order must be ``k``; passing the same problem to
    several fits builds its design once.  Normalization bounds come from the
    given rows only; the labels are ``problem.dataset.y`` and need at least
    2 rows of each class.  The solver starts from ``start``, a full parameter
    vector [bias, indices...] such as another fit's ``parameters``, or from
    zero by default.  Why the solver stopped is the result's ``status``
    (:data:`STATUSES`), never raised: ``separable`` only for a fit with no
    penalty term ('none', or lam = 0), whose parameters are then the first
    iterate that separates the rows.
    """
    problem = data if isinstance(data, Problem) else prepare(data, k)
    if k != problem.k:
        raise ValueError(f"k={k} does not match the problem's order k={problem.k}")
    dataset = problem.dataset
    neg, pos = dataset.class_counts()
    if pos < 2 or neg < 2:
        raise ValueError(
            f"need at least 2 samples of each class, got {neg} negative / {pos} positive"
        )
    w = sample_weights(dataset.y, config.class_weighting)

    obj = _Objective(problem.design, dataset.y, w, config.penalty, config.lam)
    theta, trace, status, iterations, residual = _newton(obj, start)
    if status != "converged":
        logger.info(
            "fit on '%s' (k=%d, %s, lam=%g) stopped at %d iterations with status %s, "
            "residual %.3e (tol %g)",
            dataset.name, k, config.penalty, config.lam, iterations, status,
            residual, TOL,
        )
    model = ShapleyModel(
        feature_names=list(dataset.feature_names),
        k=k,
        bias=float(theta[0]),
        indices=theta[1:],
        normalization=problem.normalization,
    )
    return FitResult(
        model=model,
        objective_trace=trace,
        status=status,
        iterations=iterations,
        grad_norm=residual,
    )
