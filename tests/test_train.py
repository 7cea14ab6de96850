import numpy as np
import pytest

from shapreg.basis import design_matrix
from shapreg.data import Dataset, gen_random_noise
from shapreg.train import (
    FitConfig,
    fit,
    loss_and_gradient,
    sample_weights,
    sensitivity_to_label_flip,
)


def toy_dataset(n=4, big_n=60, seed=0, signal=True):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(big_n, n))
    if signal:
        logit = 3.0 * (x[:, 0] - 0.5) - 2.0 * (x[:, 1] - 0.5)
        y = (rng.uniform(size=big_n) < 1 / (1 + np.exp(-logit))).astype(int)
        if y.sum() < 2 or big_n - y.sum() < 2:  # re-roll degenerate draws
            return toy_dataset(n, big_n, seed + 1, signal)
    else:
        y = rng.integers(0, 2, size=big_n)
    return Dataset(x=x, y=y, feature_names=[f"f{i}" for i in range(n)])


# ---------------------------------------------------------------------------
# loss and gradient
# ---------------------------------------------------------------------------

def test_loss_at_zero_params_balanced():
    ds = toy_dataset(big_n=40, signal=False, seed=5)
    y = np.array([0, 1] * 20)
    design = design_matrix(ds.x, 2)
    value, grad = loss_and_gradient(
        (0.0, np.zeros(design.shape[1])), design, y, FitConfig(penalty="l2", lam=1.0)
    )
    assert value == pytest.approx(40 * np.log(2))
    assert grad[0] == pytest.approx(0.0, abs=1e-12)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    config = FitConfig(penalty="none")
    for trial in range(5):
        n = int(rng.integers(2, 7))
        big_n = int(rng.integers(10, 51))
        x = rng.uniform(size=(big_n, n))
        y = rng.integers(0, 2, size=big_n)
        design = design_matrix(x, min(2, n))
        theta = rng.normal(size=design.shape[1] + 1) * 0.7

        _, grad = loss_and_gradient((theta[0], theta[1:]), design, y, config)
        step = 1e-6
        for j in range(theta.size):
            e = np.zeros_like(theta)
            e[j] = step
            up, _ = loss_and_gradient((theta[0] + e[0], theta[1:] + e[1:]), design, y, config)
            dn, _ = loss_and_gradient((theta[0] - e[0], theta[1:] - e[1:]), design, y, config)
            fd = (up - dn) / (2 * step)
            denom = max(1.0, abs(fd))
            assert abs(grad[j] - fd) / denom < 1e-5


def test_l2_penalty_adds_exactly():
    ds = toy_dataset(seed=2)
    design = design_matrix(ds.x, 2)
    rng = np.random.default_rng(3)
    indices = rng.normal(size=design.shape[1])
    base, _ = loss_and_gradient((0.2, indices), design, ds.y, FitConfig(penalty="none"))
    lam = 2.5
    ridged, _ = loss_and_gradient((0.2, indices), design, ds.y, FitConfig(penalty="l2", lam=lam))
    assert ridged == pytest.approx(base + lam * float(indices @ indices))


def test_l1_loss_value_includes_penalty_gradient_smooth_only():
    ds = toy_dataset(seed=4)
    design = design_matrix(ds.x, 2)
    indices = np.ones(design.shape[1])
    lam = 1.5
    plain, grad_plain = loss_and_gradient((0.0, indices), design, ds.y, FitConfig(penalty="none"))
    lasso, grad_lasso = loss_and_gradient((0.0, indices), design, ds.y,
                                          FitConfig(penalty="l1", lam=lam))
    assert lasso == pytest.approx(plain + lam * indices.size)
    assert grad_lasso == pytest.approx(grad_plain)


def test_rejects_bad_labels_and_nan_design():
    ds = toy_dataset()
    design = design_matrix(ds.x, 1)
    with pytest.raises(ValueError):
        loss_and_gradient((0.0, np.zeros(design.shape[1])), design,
                          np.full(ds.n_samples, 2), FitConfig())
    bad = design.values.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        loss_and_gradient((0.0, np.zeros(design.shape[1])), bad, ds.y, FitConfig())


def test_sample_weights_inverse_frequency():
    y = np.array([0, 0, 0, 1])
    w = sample_weights(y, "inverse_frequency")
    assert w == pytest.approx([4 / 6, 4 / 6, 4 / 6, 2.0])
    assert w.sum() == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_separable_1d_reaches_full_accuracy():
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.uniform(0, 0.4, size=(20, 1)), rng.uniform(0.6, 1, size=(20, 1))])
    ds = Dataset(x=x, y=np.repeat([0, 1], 20), feature_names=["a"])
    result = fit(ds, 1, FitConfig(penalty="l2", lam=1.0))
    assert result.converged
    assert (result.model.predict(x) == ds.y).mean() == 1.0


def test_huge_lambda_pins_indices():
    ds = toy_dataset(seed=7)
    result = fit(ds, 2, FitConfig(penalty="l2", lam=1e6))
    assert np.linalg.norm(result.model.indices) < 1e-3
    base_rate = ds.y.mean()
    assert result.model.predict_proba(ds.x) == pytest.approx(np.full(ds.n_samples, base_rate), abs=0.02)


def test_objective_matches_reference_optimizer():
    """Naive tiny-step full-batch gradient descent, written independently of
    the production solver, reaches the same optimum value."""
    ds = toy_dataset(n=3, big_n=40, seed=9)
    lam = 1.0
    config = FitConfig(penalty="l2", lam=lam)
    result = fit(ds, 2, config)

    x_norm = result.model.normalize(ds.x)
    design = design_matrix(x_norm, 2).values
    y = ds.y.astype(float)

    def objective(theta):
        z = theta[0] + design @ theta[1:]
        return float(np.logaddexp(0, z).sum() - y @ z + lam * theta[1:] @ theta[1:])

    def gradient(theta):
        z = theta[0] + design @ theta[1:]
        r = 1 / (1 + np.exp(-z)) - y
        g = np.concatenate([[r.sum()], design.T @ r])
        g[1:] += 2 * lam * theta[1:]
        return g

    theta = np.zeros(design.shape[1] + 1)
    step = 1.0 / (0.25 * np.linalg.norm(design, 2) ** 2 + 0.25 * len(y) + 2 * lam)
    for _ in range(200_000):
        g = gradient(theta)
        if np.linalg.norm(g) <= 1e-10:
            break
        theta = theta - step * g

    assert result.objective_trace[-1] == pytest.approx(objective(theta), abs=1e-6)


def test_trace_non_increasing():
    ds = toy_dataset(seed=12)
    for penalty, lam in [("none", 0.0), ("l2", 0.5), ("l1", 0.5), ("l2", 1e3), ("l1", 1e-3)]:
        result = fit(ds, 2, FitConfig(penalty=penalty, lam=lam))
        assert np.diff(result.objective_trace).max() <= 1e-12


def test_l2_fits_converge_in_few_newton_steps():
    """Penalty curvature on the unpenalized bias slows Newton to a linear
    crawl at large lam; a correct Hessian needs a handful of steps."""
    ds = toy_dataset(seed=17)
    for lam in (1e-3, 1.0, 1e3):
        result = fit(ds, 2, FitConfig(penalty="l2", lam=lam))
        assert result.converged and result.iterations <= 20, (lam, result.iterations)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("penalty", ["none", "l1", "l2"])
def test_constant_and_duplicated_features_converge(k, penalty):
    """A constant feature makes every pair column {i, c} a multiple of x_i and
    a duplicated feature repeats columns, so the Hessian is singular."""
    ds = toy_dataset(n=4, big_n=200, seed=18)
    x = ds.x.copy()
    x[:, 2] = 0.5
    x[:, 3] = x[:, 0]
    ds = Dataset(x=x, y=ds.y, feature_names=ds.feature_names)
    result = fit(ds, k, FitConfig(penalty=penalty, lam=0.1))
    assert result.converged and result.grad_norm <= 1e-8


def _lbfgsb_reference(design, y, w, penalty, lam):
    """Minimum of the training objective by scipy's L-BFGS-B, written
    independently of the production solver; l1 is split as u - v, u, v >= 0."""
    from scipy.optimize import minimize

    d = design.shape[1]
    split = penalty == "l1"

    def objective(params):
        coef = params[1:d + 1] - params[d + 1:] if split else params[1:]
        z = params[0] + design @ coef
        r = w * (1 / (1 + np.exp(-z)) - y)
        g_coef = design.T @ r
        value = float(w @ (np.logaddexp(0, z) - y * z))
        if penalty == "l2":
            value += lam * float(coef @ coef)
            g_coef = g_coef + 2 * lam * coef
        if split:
            value += lam * float(params[1:].sum())
            g_coef = np.concatenate([g_coef + lam, -g_coef + lam])
        return value, np.concatenate([[r.sum()], g_coef])

    size = 1 + (2 * d if split else d)
    bounds = [(None, None)] + [(0, None) if split else (None, None)] * (size - 1)
    res = minimize(objective, np.zeros(size), jac=True, method="L-BFGS-B", bounds=bounds,
                   options={"maxiter": 100_000, "maxfun": 100_000, "ftol": 1e-15, "gtol": 1e-12})
    return res.fun, objective


@pytest.mark.parametrize("class_weighting", ["off", "inverse_frequency"])
@pytest.mark.parametrize("penalty, lam", [("none", 0.0), ("l1", 0.3), ("l1", 3.0), ("l2", 0.5)])
def test_objective_matches_lbfgsb_reference(penalty, lam, class_weighting):
    ds = toy_dataset(n=3, big_n=80, seed=19)
    result = fit(ds, 2, FitConfig(penalty=penalty, lam=lam, class_weighting=class_weighting))
    design = design_matrix(result.model.normalize(ds.x), 2).values
    y = ds.y.astype(float)
    ref_value, objective = _lbfgsb_reference(design, y, sample_weights(ds.y, class_weighting),
                                             penalty, lam)
    coef = result.model.indices
    ours = np.concatenate([[result.model.bias], np.maximum(coef, 0), np.maximum(-coef, 0)]) \
        if penalty == "l1" else result.parameters
    ours_value, _ = objective(ours)
    assert result.converged
    assert abs(ours_value - ref_value) <= 1e-8 * abs(ref_value)
    assert result.objective_trace[-1] == pytest.approx(ours_value, rel=1e-12)


def test_fit_is_deterministic():
    ds = toy_dataset(seed=13)
    config = FitConfig(penalty="l1", lam=0.3, seed=5)
    a = fit(ds, 2, config)
    b = fit(ds, 2, config)
    assert a.model.to_json() == b.model.to_json()
    assert np.array_equal(a.objective_trace, b.objective_trace)


def test_single_class_rejected():
    rng = np.random.default_rng(14)
    ds = Dataset(x=rng.uniform(size=(10, 2)), y=np.ones(10, dtype=int),
                 feature_names=["a", "b"])
    with pytest.raises(ValueError):
        fit(ds, 1, FitConfig())


def test_nonconvergence_is_reported_not_raised():
    ds = toy_dataset(seed=16)
    result = fit(ds, 2, FitConfig(penalty="l2", lam=0.1, max_iters=3))
    assert not result.converged
    assert result.iterations == 3
    assert np.isfinite(result.grad_norm) and result.grad_norm > 0.0


def test_k1_fit_matches_sklearn_logistic():
    sklearn = pytest.importorskip("sklearn.linear_model")
    ds = gen_random_noise(5, 200, seed=3)
    lam = 0.7
    result = fit(ds, 1, FitConfig(penalty="l2", lam=lam, tol=1e-10))
    x_norm = result.model.normalize(ds.x)
    # same objective up to scaling: sum xent + lam * ||w||^2 == sklearn C = 1/(2 lam)
    ref = sklearn.LogisticRegression(C=1.0 / (2 * lam), tol=1e-12, max_iter=50_000)
    ref.fit(x_norm, ds.y)
    ours = result.model.predict_proba(ds.x)
    theirs = ref.predict_proba(x_norm)[:, 1]
    assert np.abs(ours - theirs).max() < 1e-6


def test_class_weighting_changes_the_optimum():
    rng = np.random.default_rng(15)
    x = rng.uniform(size=(120, 3))
    y = (rng.uniform(size=120) < 0.15).astype(int)
    while y.sum() < 5:
        y[rng.integers(120)] = 1
    ds = Dataset(x=x, y=y, feature_names=["a", "b", "c"])
    plain = fit(ds, 1, FitConfig(penalty="l2", lam=1.0))
    weighted = fit(ds, 1, FitConfig(penalty="l2", lam=1.0, class_weighting="inverse_frequency"))
    # inverse-frequency weighting pushes the bias toward a balanced base rate
    assert weighted.model.bias > plain.model.bias


# ---------------------------------------------------------------------------
# label-flip sensitivity
# ---------------------------------------------------------------------------

def test_flip_study_is_deterministic():
    ds = gen_random_noise(4, 40, seed=21)
    config = FitConfig(penalty="l2", lam=1.0, seed=9)
    a = sensitivity_to_label_flip(ds, 1, config, repeats=4)
    b = sensitivity_to_label_flip(ds, 1, config, repeats=4)
    assert np.array_equal(a.shifts, b.shifts)
    assert np.array_equal(a.flipped_rows, b.flipped_rows)


def test_flip_study_huge_lambda_pins_indices():
    # at extreme regularization the penalized coordinates barely move (the
    # unpenalized bias still tracks the flipped base rate)
    ds = gen_random_noise(4, 50, seed=22)
    study = sensitivity_to_label_flip(ds, 2, FitConfig(penalty="l2", lam=1e9, seed=1), repeats=3)
    assert study.max_index_shifts.max() < 1e-6


def test_per_index_shift_never_exceeds_vector_shift():
    ds = gen_random_noise(5, 60, seed=23)
    study = sensitivity_to_label_flip(ds, 2, FitConfig(penalty="l2", lam=0.5, seed=2), repeats=6)
    assert np.all(study.max_index_shifts <= study.shifts)


def test_risk_diff_within_stability_ceiling_at_lam_ge_1():
    ds = gen_random_noise(6, 80, seed=24)
    for lam in (1.0, 4.0):
        study = sensitivity_to_label_flip(ds, 2, FitConfig(penalty="l2", lam=lam, seed=3), repeats=5)
        assert study.risk_diffs.max() <= study.stability_ceiling
