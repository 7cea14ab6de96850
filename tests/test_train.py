import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shapreg import analysis, train
from shapreg.analysis import sensitivity_to_label_flip
from shapreg.basis import design_matrix
from shapreg.data import Dataset, gen_random_noise
from shapreg.games import num_coalitions
from shapreg.model import apply_normalization
from shapreg.train import (
    FitConfig,
    fit,
    loss_and_gradient,
    prepare,
    sample_weights,
)

from lbfgsb_reference import lbfgsb_reference


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


def collinear_dataset(seed):
    """A constant feature makes every pair column {i, c} a multiple of x_i and
    a duplicated feature repeats columns, so the Hessian is singular."""
    ds = toy_dataset(n=4, big_n=200, seed=seed)
    x = ds.x.copy()
    x[:, 2] = 0.5
    x[:, 3] = x[:, 0]
    return Dataset(x=x, y=ds.y, feature_names=ds.feature_names)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("penalty", ["none", "l1", "l2"])
def test_constant_and_duplicated_features_converge(k, penalty):
    result = fit(collinear_dataset(seed=18), k, FitConfig(penalty=penalty, lam=0.1))
    assert result.converged and result.grad_norm <= 1e-8


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("lam", [1e-4, 1e-3, 3e-2])
def test_collinear_l1_converges_in_few_newton_steps(k, lam):
    """Collinear columns (a constant plus a duplicated feature) let an
    orthant-projected Newton step keep crossing zero between them for 43-240
    iterations on this data; the exact l1 subproblem needs a handful."""
    result = fit(collinear_dataset(seed=21), k, FitConfig(penalty="l1", lam=lam))
    assert result.converged and result.iterations <= 30, result.iterations


@st.composite
def l1_subproblems(draw):
    dim = draw(st.integers(1, 8))
    entries = st.floats(-3.0, 3.0)
    a = draw(arrays(float, (dim, dim), elements=entries))
    hess = a @ a.T + 0.1 * np.eye(dim)
    grad = draw(arrays(float, dim, elements=st.floats(-5.0, 5.0)))
    theta = draw(arrays(float, dim, elements=st.one_of(st.just(0.0), entries)))
    return hess, grad, theta, draw(st.floats(1e-3, 10.0))


@settings(max_examples=300, deadline=None)
@given(problem=l1_subproblems())
def test_newton_step_solves_the_l1_subproblem(problem):
    """The step minimizes grad @ d + d @ hess @ d / 2 + lam ||(theta + d)[1:]||_1:
    at theta + d the model gradient vanishes on the bias, equals -lam * sign on
    nonzero coefficients and stays within lam on zero ones.  Without the l1
    term it is the one full Newton solve."""
    hess, grad, theta, lam = problem
    d = train._newton_step(hess, grad, theta, lam)
    slope, coef = grad + hess @ d, (theta + d)[1:]
    nonzero = coef != 0
    assert abs(slope[0]) <= 1e-9
    assert np.all(np.abs(slope[1:][nonzero] + lam * np.sign(coef[nonzero])) <= 1e-9)
    assert np.all(np.abs(slope[1:][~nonzero]) <= lam + 1e-9)
    assert np.array_equal(train._newton_step(hess, grad, theta, 0.0), -np.linalg.solve(hess, grad))


def noise_problem():
    """The largest system of a `bounds` gap fit: N=500 rows, D=255 columns,
    read through `at_order`'s view of the design."""
    return train.at_order(prepare(gen_random_noise(8, 500, seed=3), 8), 8)


@pytest.mark.parametrize("bounds_sized", [False, True], ids=["50x6", "bounds_D255"])
def test_hessian_reuses_no_returned_array(bounds_sized):
    """A Hessian already returned keeps its values when the next one is
    formed, and they are the direct formula's."""
    rng = np.random.default_rng(4)
    if bounds_sized:
        problem = noise_problem()
        phi, y = problem.design, problem.dataset.y
    else:
        phi = rng.uniform(-0.5, 0.5, size=(50, 6))
        y = (rng.uniform(size=50) < 0.5).astype(float)
    big_n, d = phi.shape
    obj = train._Objective(phi, y, np.ones(big_n), "l2", 0.3)
    z1, z2 = rng.normal(size=big_n), rng.normal(size=big_n)
    first = obj.hessian(z1, train.expit(z1))
    kept = first.copy()
    second = obj.hessian(z2, train.expit(z2))
    assert np.array_equal(first, kept) and not np.array_equal(first, second)
    s = train.expit(z1) * train.expit(-z1)
    scaled = phi * np.sqrt(s)[:, None]
    block = scaled.T @ scaled
    inner = ~np.eye(d, dtype=bool)
    assert first[0, 0] == s.sum() and np.array_equal(first[0, 1:], phi.T @ s)
    assert np.array_equal(first[1:, 0], phi.T @ s)
    assert np.array_equal(first[1:, 1:][inner], block[inner])
    assert np.array_equal(np.diag(first)[1:], np.diag(block) + 2.0 * 0.3)


@pytest.mark.parametrize("whole_fit", [False, True], ids=["hessian", "newton"])
def test_hessian_allocates_one_newton_system(whole_fit):
    """Forming the Hessian allocates the N x D scaled design and the
    (D + 1)^2 system it returns, and no D^2 temporary besides; a whole
    smooth fit peaks there too: no shift copies the system, and no
    iteration forms its Hessian while the previous one is still held."""
    problem = noise_problem()
    phi = problem.design
    big_n, d = phi.shape
    obj = train._Objective(phi, problem.dataset.y, np.ones(big_n), "l2", 0.3)
    z = np.random.default_rng(5).normal(size=big_n)
    p = train.expit(z)

    def run():
        return train._newton(obj) if whole_fit else obj.hessian(z, p)

    run()  # warm-up: first-call allocations are not the system's
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * big_n * d + 8 * (d + 1) ** 2 + 64 * 1024


@pytest.mark.parametrize("penalty, lam, smooth", [
    ("none", 0.0, True), ("l2", 0.1, True), ("l2", 1.0, True), ("l1", 0.1, False)])
def test_smooth_fits_never_measure_an_l1_change(monkeypatch, penalty, lam, smooth):
    calls = []
    l1_change = train._l1_change

    def counted(theta, cand):
        calls.append(1)
        return l1_change(theta, cand)

    monkeypatch.setattr(train, "_l1_change", counted)
    result = fit(toy_dataset(), 2, FitConfig(penalty=penalty, lam=lam))
    assert result.converged and result.iterations >= 4
    assert (len(calls) == 0) == smooth


def test_l1_change_keeps_small_steps():
    """Near the optimum the model decrease is ~1e-16 while ||theta||_1 is ~15:
    the difference of the two norms would round the l1 change of a small
    step to noise and stall the line search, the signed step does not."""
    theta = np.array([0.3, 10.618054, -3.6658280, 0.0, -0.87724244])
    cand = theta + np.array([1e-10, 2.5e-8, -1.1e-8, -3e-9, 2.6e-9])
    exact = sum(abs(Fraction(c)) - abs(Fraction(t)) for c, t in zip(cand[1:], theta[1:]))
    assert train._l1_change(theta, cand) == pytest.approx(float(exact), rel=1e-12, abs=0)
    assert train._l1_change(theta, np.zeros(5)) == -np.abs(theta[1:]).sum()


class _FirstHessianMissesColumn(train._Objective):
    """Leaves the curvature of the first column out of the first Hessian, as
    a Hessian taken where that column's samples saturate would."""

    calls = 0

    def hessian(self, z, p):
        hess = super().hessian(z, p)
        if self.calls == 0:
            hess[1, :] = hess[:, 1] = 0.0
        self.calls += 1
        return hess


@pytest.mark.parametrize("penalty, lam", [("none", 0.0), ("l1", 0.1), ("l2", 0.1)])
def test_hessian_shift_escalates_when_the_step_fails(monkeypatch, penalty, lam):
    """With the first column scaled by 1e4 and its curvature missing, the
    first Newton step overshoots at the smallest shift and the line search
    rejects it; a larger shift passes, and the fit then converges on the true
    Hessian."""
    rng = np.random.default_rng(0)
    phi = rng.uniform(-0.5, 0.5, size=(60, 4))
    phi[:, 0] *= 1e4
    y = (rng.uniform(size=60) < 0.5).astype(float)
    obj = _FirstHessianMissesColumn(phi, y, np.ones(60), penalty, lam)
    shifted = []  # first-column curvature of every subproblem solved
    newton_step = train._newton_step

    def recording_step(hess, grad, theta, lam):
        shifted.append(hess[1, 1])
        return newton_step(hess, grad, theta, lam)

    monkeypatch.setattr(train, "_newton_step", recording_step)
    monkeypatch.setattr(train, "MAX_ITERS", 100)
    theta, trace, status, iterations, residual = train._newton(obj)
    assert status == "converged" and residual <= 1e-8
    assert np.diff(trace).max() <= 1e-12
    # on the first iteration that curvature is the shift alone, ~1e8 below
    # its true value; the shifts tried there rise in the order of _SHIFTS
    first = np.array([h for h in shifted if h < 1e4])
    assert len(first) >= 2 and len(shifted) == iterations + len(first) - 1
    assert first / first[0] * train._SHIFTS[0] == pytest.approx(train._SHIFTS[:len(first)], rel=1e-9)


@pytest.mark.parametrize("penalty, lam", [("none", 0.0), ("l1", 0.1), ("l2", 0.1)])
def test_every_shift_try_sees_its_iterations_hessian_plus_one_shift(monkeypatch, penalty, lam):
    """With the line search refusing the first two steps, the first
    iteration's three subproblems are its Hessian with the diagonal shifted
    by _SHIFTS[j] times the mean diagonal, bit for bit: a try never carries
    an earlier try's shift."""
    rng = np.random.default_rng(2)
    phi = rng.uniform(-0.5, 0.5, size=(60, 5))
    y = (rng.uniform(size=60) < 0.5).astype(float)
    hessians, solved = [], []  # copies: the solver may reuse the arrays

    class Recorded(train._Objective):
        def hessian(self, z, p):
            hess = super().hessian(z, p)
            hessians.append(hess.copy())
            return hess

    newton_step, line_search = train._newton_step, train._line_search

    def recording_step(hess, grad, theta, lam):
        solved.append(hess.copy())
        return newton_step(hess, grad, theta, lam)

    def refusing_search(*args):
        return None if len(solved) <= 2 else line_search(*args)

    monkeypatch.setattr(train, "_newton_step", recording_step)
    monkeypatch.setattr(train, "_line_search", refusing_search)
    train._newton(Recorded(phi, y, np.ones(60), penalty, lam))
    hess = hessians[0]
    dim = hess.shape[0]
    scale = float(np.trace(hess)) / dim
    assert len(hessians) > 1 and len(solved) > 3
    for j, tried in enumerate(solved[:3]):
        expected = hess.copy()
        expected.flat[::dim + 1] += train._SHIFTS[j] * scale
        assert np.array_equal(tried, expected)


class _FlatHessian(train._Objective):
    def hessian(self, z, p):
        return np.zeros((self.phi.shape[1] + 1,) * 2)


@pytest.mark.parametrize("penalty, lam", [("none", 0.0), ("l1", 0.1)])
def test_singular_subproblems_stop_with_no_descent(monkeypatch, penalty, lam):
    """A subproblem solve that raises LinAlgError at every shift, caught by
    the loop, stops the fit at its start with ``no_descent``.  A zero
    Hessian has a zero mean diagonal, so the shifts are tried twice: once in
    units of that diagonal and once in units of 1."""
    ds = toy_dataset()
    obj = _FlatHessian(prepare(ds, 2).design, ds.y.astype(float), np.ones(ds.n_samples),
                       penalty, lam)
    diagonals = []

    def singular_step(hess, grad, theta, lam):
        diagonals.append(hess[0, 0])
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(train, "_newton_step", singular_step)
    theta, trace, status, iterations, residual = train._newton(obj)
    assert (status, iterations) == ("no_descent", 1)
    assert diagonals == [0.0] * len(train._SHIFTS) + list(train._SHIFTS)
    assert not theta.any() and trace.size == 1 and residual > 1e-8


@pytest.mark.parametrize("penalty, lam", [("none", 0.0), ("l1", 1.0), ("l2", 1.0)])
def test_saturated_start_reaches_the_cold_fit(penalty, lam):
    """From a start whose logits all lie beyond |z| = 50, the Hessian's mean
    diagonal without an l2 term is about 1e-23, so every shift in its units
    leaves the first step far too long; the shifts in units of 1 take the fit
    on to the minimizer that a cold start finds.  The l2 curvature keeps
    that diagonal above 1, so l2 takes the first pass alone."""
    problem = prepare(gen_random_noise(3, 60, seed=1), 1)
    config = FitConfig(penalty=penalty, lam=lam)
    warm = fit(problem, 1, config, start=[0.0, 1e5, -1e5, 0.0])
    cold = fit(problem, 1, config)
    assert warm.status == cold.status == "converged"
    assert warm.objective_trace[-1] == pytest.approx(cold.objective_trace[-1], rel=1e-12)
    assert np.allclose(warm.parameters, cold.parameters, atol=1e-6)


@pytest.mark.parametrize("penalty, lam", [("none", 0.0), ("l1", 0.1), ("l2", 0.1), ("l2", 1.0)])
def test_one_sigmoid_pass_per_iterate(monkeypatch, penalty, lam):
    """The gradient and the Hessian share one expit(z) per iterate; the
    Hessian adds only expit(-z), and the last iterate needs the gradient
    alone, so a fit of ``it`` iterations makes 2 it + 1 calls."""
    calls = []
    expit = train.expit

    def counted(z):
        calls.append(1)
        return expit(z)

    monkeypatch.setattr(train, "expit", counted)
    result = fit(toy_dataset(), 2, FitConfig(penalty=penalty, lam=lam))
    assert result.converged and result.iterations >= 4
    assert len(calls) == 2 * result.iterations + 1


@pytest.mark.parametrize("size", [1, 2, 5, 6, 21])
def test_median_shift_is_np_median(size):
    shifts = np.random.default_rng(size).exponential(size=size)
    shifts[size // 3] = shifts[size // 2]  # a tie
    study = analysis.LabelFlipStudy(shifts=shifts, max_index_shifts=shifts,
                                    risk_diffs=shifts, row_norm=1.0, stability_ceiling=1.0,
                                    flipped_rows=np.arange(size))
    assert study.median_shift == np.median(shifts)


@pytest.mark.parametrize("class_weighting", ["off", "inverse_frequency"])
@pytest.mark.parametrize("penalty, lam", [("none", 0.0), ("l1", 0.3), ("l1", 3.0), ("l2", 0.5)])
def test_objective_matches_lbfgsb_reference(penalty, lam, class_weighting):
    ds = toy_dataset(n=3, big_n=80, seed=19)
    result = fit(ds, 2, FitConfig(penalty=penalty, lam=lam, class_weighting=class_weighting))
    design = design_matrix(result.model.normalize(ds.x), 2).values
    y = ds.y.astype(float)
    ref_value, _, objective = lbfgsb_reference(design, y, sample_weights(ds.y, class_weighting),
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
    config = FitConfig(penalty="l1", lam=0.3)
    a = fit(ds, 2, config)
    b = fit(ds, 2, config)
    assert a.model.to_json() == b.model.to_json()
    assert np.array_equal(a.objective_trace, b.objective_trace)


@pytest.mark.parametrize("penalty, lam", [("none", 0.0), ("l1", 0.05), ("l2", 0.3)])
def test_fit_on_a_prepared_problem_is_the_dataset_fit(penalty, lam):
    ds = toy_dataset(seed=17)
    config = FitConfig(penalty=penalty, lam=lam, class_weighting="inverse_frequency")
    direct = fit(ds, 2, config)
    problem = prepare(ds, 2)
    for result in (fit(problem, 2, config), fit(problem, 2, config, start=np.zeros(11))):
        assert result.model.to_json() == direct.model.to_json()
        assert np.array_equal(result.objective_trace, direct.objective_trace)
        assert result.iterations == direct.iterations


def test_fit_rejects_a_mismatched_problem_or_start():
    problem = prepare(toy_dataset(seed=18), 2)
    with pytest.raises(ValueError, match="order k=2"):
        fit(problem, 1, FitConfig())
    for start in (np.zeros(10), np.full(11, np.nan)):
        with pytest.raises(ValueError, match="start"):
            fit(problem, 2, FitConfig(), start=start)


def test_prepare_refuses_a_newton_system_over_the_budget_before_any_work(monkeypatch):
    """k = 3 on 60 features gives D = 36 050 and a 10.4 GB Hessian; k = 2
    (D = 1 830) is fine."""
    monkeypatch.setattr(train, "design_matrix", None)  # never reached
    ds = toy_dataset(n=60, big_n=8, seed=20, signal=False)
    with pytest.raises(ValueError, match=r"k=3 on n=60 .*D=36,050.*Newton system needs "
                                         r"10,397,396,808 bytes"):
        prepare(ds, 3)
    train.check_fit_size(60, 2)


@pytest.mark.parametrize("penalty, lam, near", [("l1", 0.05, 0.08), ("l2", 0.3, 0.5)])
def test_warm_start_reaches_the_cold_objective(penalty, lam, near):
    problem = prepare(toy_dataset(seed=19), 2)
    config = FitConfig(penalty=penalty, lam=lam)
    cold = fit(problem, 2, config)
    neighbour = fit(problem, 2, FitConfig(penalty=penalty, lam=near))
    warm = fit(problem, 2, config, start=neighbour.parameters)
    assert cold.converged and warm.converged
    cold_value = cold.objective_trace[-1]
    assert abs(warm.objective_trace[-1] - cold_value) <= 1e-10 * abs(cold_value)
    assert warm.iterations < cold.iterations


def test_single_class_rejected():
    rng = np.random.default_rng(14)
    ds = Dataset(x=rng.uniform(size=(10, 2)), y=np.ones(10, dtype=int),
                 feature_names=["a", "b"])
    with pytest.raises(ValueError):
        fit(ds, 1, FitConfig())


def test_nonconvergence_is_reported_not_raised(monkeypatch):
    ds = toy_dataset(seed=16)
    monkeypatch.setattr(train, "MAX_ITERS", 3)
    result = fit(ds, 2, FitConfig(penalty="l2", lam=0.1))
    assert not result.converged and result.status == "budget"
    assert result.iterations == 3
    assert np.isfinite(result.grad_norm) and result.grad_norm > 0.0
    monkeypatch.setattr(train, "MAX_ITERS", 0)
    assert fit(ds, 2, FitConfig()).iterations == 0


@pytest.mark.parametrize("kwargs", [
    dict(lam=-1.0), dict(lam=np.nan), dict(lam=np.inf), dict(penalty="none", lam=np.nan),
])
def test_config_rejects_unusable_settings(kwargs):
    """A negative, infinite or NaN strength would fit to garbage."""
    with pytest.raises(ValueError):
        FitConfig(**kwargs)


def test_k1_fit_matches_sklearn_logistic(monkeypatch):
    sklearn = pytest.importorskip("sklearn.linear_model")
    ds = gen_random_noise(5, 200, seed=3)
    lam = 0.7
    monkeypatch.setattr(train, "TOL", 1e-10)
    result = fit(ds, 1, FitConfig(penalty="l2", lam=lam))
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
# solver status and the separation certificate
# ---------------------------------------------------------------------------

def threshold_dataset():
    """n=1 with y = [x > 0.5]: one threshold separates the rows, so an
    unpenalized loss has infimum 0 and no minimizer."""
    x = np.linspace(0, 1, 11)
    return Dataset(x=x[:, None], y=(x > 0.5).astype(int), feature_names=["a"])


@pytest.mark.parametrize("config", [
    FitConfig(penalty="none"),
    FitConfig(penalty="none", class_weighting="inverse_frequency"),
    FitConfig(penalty="l2", lam=0.0),
])
def test_separable_rows_stop_at_a_separating_iterate(monkeypatch, config):
    monkeypatch.setattr(train, "MAX_ITERS", 100)
    ds = threshold_dataset()
    result = fit(ds, 1, config)
    assert result.status == "separable" and not result.converged
    signed = (2 * ds.y - 1) * result.model.logit(ds.x)
    assert np.all(signed > 0)
    assert result.iterations < 100


@pytest.mark.parametrize("penalty", ["l1", "l2"])
def test_penalized_fits_are_never_separable(penalty):
    """Any lam > 0 gives a finite minimizer, even on separable rows."""
    for lam in (1e-3, 1.0):
        result = fit(threshold_dataset(), 1, FitConfig(penalty=penalty, lam=lam))
        assert result.status == "converged", (lam, result.status)


@pytest.mark.parametrize("class_weighting, iterations, parameters", [
    ("off", 6, ["0x1.7e874aaf9437ap-3", "0x1.36d96f822c178p+2", "-0x1.1ca45c804f013p+1",
                "-0x1.d84bdbddea940p+0", "-0x1.d9527f8fb7884p-3", "0x1.6d11f513f4015p+3",
                "-0x1.87bbc5c03612fp+2"]),
    ("inverse_frequency", 6, ["0x1.1ad007c0322dfp-1", "0x1.366d463b54e38p+2",
                              "-0x1.17dbf8356781fp+1", "-0x1.d646722606369p+0",
                              "-0x1.3de4f633a4aa3p-3", "0x1.6c943b1bfd6b4p+3",
                              "-0x1.79b416499df4cp+2"]),
])
def test_non_separable_unpenalized_fit_is_unchanged(class_weighting, iterations, parameters):
    """Rows no iterate separates never meet the certificate, so the fit is
    the plain Newton path: its iteration count and parameter bits are pinned
    (OpenBLAS)."""
    ds = toy_dataset(n=3, big_n=60, seed=7)
    result = fit(ds, 2, FitConfig(penalty="none", class_weighting=class_weighting))
    assert result.status == "converged" and result.iterations == iterations
    assert [float(v).hex() for v in result.parameters] == parameters
    assert np.sum((2 * ds.y - 1) * result.model.logit(ds.x) <= 0) > 0


def test_a_problem_design_is_a_read_only_array_of_the_normalized_rows():
    ds = gen_random_noise(5, 120, seed=2)
    for k in range(1, 6):
        problem = prepare(ds, k)
        assert type(problem.design) is np.ndarray
        assert not problem.design.flags.writeable
        want = design_matrix(apply_normalization(ds.x, problem.normalization), k).values
        assert problem.design.dtype == want.dtype and problem.design.shape == want.shape
        assert problem.design.tobytes() == want.tobytes()


def test_every_order_view_is_a_read_only_slice_of_the_top_design():
    top = prepare(gen_random_noise(6, 80, seed=3), 6)
    for k in range(1, 7):
        view = train.at_order(top, k).design
        assert type(view) is np.ndarray and not view.flags.writeable
        assert np.shares_memory(view, top.design)
        assert view.shape == (80, num_coalitions(6, k))


def test_every_lower_order_design_is_a_column_prefix():
    """For every k' < k <= n <= 8, the order-k' design is bit for bit the
    first D_k' columns of the order-k design."""
    rng = np.random.default_rng(23)
    for n in range(1, 9):
        x = rng.uniform(size=(40, n))
        designs = [design_matrix(x, k).values for k in range(1, n + 1)]
        for k, top in enumerate(designs, start=1):
            for lower in designs[:k - 1]:
                assert np.array_equal(top[:, :lower.shape[1]], lower), (n, k, lower.shape[1])


def test_a_fit_at_a_lower_order_view_is_the_fit_on_its_own_design():
    ds = gen_random_noise(6, 200, seed=4)
    top = prepare(ds, 6)
    for k in range(1, 7):
        view = train.at_order(top, k)
        own = prepare(ds, k)
        assert np.array_equal(view.normalization, own.normalization)
        assert np.array_equal(view.design, own.design)
        assert not view.design.flags.writeable
        for config in (FitConfig(penalty="none"), FitConfig(penalty="l2", lam=0.5)):
            a, b = fit(view, k, config), fit(own, k, config)
            assert (a.status, a.iterations) == (b.status, b.iterations)
            assert np.array_equal(a.parameters, b.parameters)
    with pytest.raises(ValueError, match="k must be in"):
        train.at_order(prepare(ds, 2), 3)


# ---------------------------------------------------------------------------
# label-flip sensitivity
# ---------------------------------------------------------------------------

def test_flip_study_is_deterministic():
    ds = gen_random_noise(4, 40, seed=21)
    config = FitConfig(penalty="l2", lam=1.0)
    a = sensitivity_to_label_flip(ds, 1, config, repeats=4, seed=9)
    b = sensitivity_to_label_flip(ds, 1, config, repeats=4, seed=9)
    assert np.array_equal(a.shifts, b.shifts)
    assert np.array_equal(a.flipped_rows, b.flipped_rows)


def test_flip_study_huge_lambda_pins_indices():
    # at extreme regularization the penalized coordinates barely move (the
    # unpenalized bias still tracks the flipped base rate)
    ds = gen_random_noise(4, 50, seed=22)
    study = sensitivity_to_label_flip(ds, 2, FitConfig(penalty="l2", lam=1e9), repeats=3, seed=1)
    assert study.max_index_shifts.max() < 1e-6


def test_per_index_shift_never_exceeds_vector_shift():
    ds = gen_random_noise(5, 60, seed=23)
    study = sensitivity_to_label_flip(ds, 2, FitConfig(penalty="l2", lam=0.5), repeats=6, seed=2)
    assert np.all(study.max_index_shifts <= study.shifts)


def test_risk_diff_within_stability_ceiling_at_lam_ge_1():
    ds = gen_random_noise(6, 80, seed=24)
    for lam in (1.0, 4.0):
        study = sensitivity_to_label_flip(ds, 2, FitConfig(penalty="l2", lam=lam), repeats=5, seed=3)
        assert study.risk_diffs.max() <= study.stability_ceiling


def test_only_a_ridge_study_has_a_ceiling():
    """2 L^2 / (lam N) is a ridge rate: on criterion 7's data an l2 study at
    lam = 1 reports it, while an l1 study at the same strength and an
    unpenalized one report inf."""
    ds = gen_random_noise(10, 100, seed=123)
    ridge = sensitivity_to_label_flip(ds, 2, FitConfig(penalty="l2", lam=1.0), repeats=1)
    assert ridge.stability_ceiling == analysis.stability_bound(ridge.row_norm, 1.0, 100)
    for penalty, lam in (("l1", 1.0), ("none", 0.0)):
        study = sensitivity_to_label_flip(ds, 2, FitConfig(penalty=penalty, lam=lam), repeats=1)
        assert study.stability_ceiling == np.inf, penalty


def test_flip_study_builds_one_design(monkeypatch):
    builds = []
    library_design = train.design_matrix

    def counted(*args, **kwargs):
        builds.append(args)
        return library_design(*args, **kwargs)

    monkeypatch.setattr(train, "design_matrix", counted)
    sensitivity_to_label_flip(gen_random_noise(4, 40, seed=25), 2, FitConfig(), repeats=4, seed=4)
    assert len(builds) == 1


@pytest.mark.parametrize("penalty, lam", [("none", 0.0), ("l1", 0.05), ("l2", 0.3)])
def test_flipped_refits_are_the_cold_fits(monkeypatch, penalty, lam):
    """Each refit on the study's shared design equals a cold fit of the
    flipped dataset, bit for bit; inverse-frequency weights move with the
    flipped label."""
    calls = []
    library_fit = train.fit

    def recorded(data, k, config, start=None):
        result = library_fit(data, k, config, start=start)
        calls.append((data, result))
        return result

    monkeypatch.setattr(analysis, "fit", recorded)
    ds = toy_dataset(seed=26)
    config = FitConfig(penalty=penalty, lam=lam, class_weighting="inverse_frequency")
    study = sensitivity_to_label_flip(ds, 2, config, repeats=4, seed=5)
    assert len(calls) == 5
    for (problem, refit), row in zip(calls[1:], study.flipped_rows):
        assert problem.design is calls[0][0].design
        assert np.flatnonzero(problem.dataset.y != ds.y).tolist() == [row]
        cold = library_fit(problem.dataset, 2, config)
        assert np.array_equal(refit.parameters, cold.parameters)
        assert np.array_equal(refit.objective_trace, cold.objective_trace)
        assert refit.iterations == cold.iterations


def test_flip_leaving_one_row_in_a_class_raises():
    ds = Dataset(x=np.array([[0.1, 0.9], [0.4, 0.2], [0.8, 0.5], [0.6, 0.7]]),
                 y=np.array([0, 1, 0, 1]), feature_names=["a", "b"])
    with pytest.raises(ValueError, match="at least 2 samples of each class"):
        sensitivity_to_label_flip(ds, 1, FitConfig(), repeats=1)
