import numpy as np
import pytest

from shapreg.basis import basis_dimension, design_matrix, max_row_norm, phi
from shapreg.games import (
    Basis,
    SetFunction,
    mobius_from_shapley,
    num_coalitions,
    shapley_from_mobius,
)
from shapreg.model import ShapleyModel

from choquet_reference import capacity_lattice, choquet_sorted


def test_phi_singleton_is_identity():
    x = np.array([0.3, 0.7, 0.1])
    for i in range(3):
        assert phi([i], x) == pytest.approx(x[i])


def test_phi_pair_vanishes_on_diagonal():
    for t in (0.0, 0.25, 1.0):
        assert phi([0, 1], [t, t]) == pytest.approx(0.0, abs=1e-15)


def test_phi_pair_hand_value():
    assert phi([0, 1], [0.4, 0.8]) == pytest.approx(-0.2)


def test_phi_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        phi([], [0.5, 0.5])
    with pytest.raises(ValueError):
        phi([0], [1.5, 0.0])


def test_design_matrix_k1_is_the_input():
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(20, 5))
    d = design_matrix(x, 1)
    assert np.array_equal(d.values, x)


def test_design_matrix_hand_row():
    d = design_matrix(np.array([[0.4, 0.8]]), 2)
    assert d.values[0] == pytest.approx([0.4, 0.8, -0.2])


def test_design_matrix_column_count():
    rng = np.random.default_rng(1)
    d = design_matrix(rng.uniform(size=(3, 8)), 2)
    assert d.shape == (3, 36)
    assert basis_dimension(8, 2) == 36


def test_design_matrix_rejects_unnormalized():
    with pytest.raises(ValueError):
        design_matrix(np.array([[0.5, 1.8]]), 2)


def test_singleton_columns_equal_features_exactly():
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(50, 6))
    d = design_matrix(x, 3)
    assert np.array_equal(d.values[:, :6], x)


def test_pair_columns_in_minus_half_zero():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(200, 5))
    d = design_matrix(x, 2)
    pairs = d.values[:, 5:]
    assert pairs.max() <= 1e-15
    assert pairs.min() >= -0.5 - 1e-15


def test_basis_equivalence_against_mobius_path():
    """Shapley-basis evaluation equals the Choquet integral of the
    corresponding Moebius game, for every supported order; the reference
    integrates the full-lattice capacity by sorting the point."""
    rng = np.random.default_rng(4)
    for n, k in [(4, 1), (6, 2), (8, 3), (5, 4), (8, 8)]:
        vals = rng.normal(size=num_coalitions(n, k))
        index_fn = SetFunction(n=n, k=k, basis=Basis.SHAPLEY, values=vals)
        m = mobius_from_shapley(index_fn)
        x = rng.uniform(size=(10, n))
        lhs = design_matrix(x, k).values @ vals
        lattice = capacity_lattice(m)
        rhs = np.array([choquet_sorted(lattice, row) for row in x])
        assert np.abs(lhs - rhs).max() < 1e-10


def test_max_row_norm():
    x = np.array([[1.0, 0.0], [1.0, 1.0]])
    d = design_matrix(x, 1)
    assert max_row_norm(d) == pytest.approx(np.sqrt(2.0))


def test_gradient_consistency_of_the_fitted_game():
    """Monte-Carlo average of d(logit)/dx_i over the unit cube equals the
    Shapley value of the model's game (singleton index via the Moebius path),
    within 3 standard errors."""
    rng = np.random.default_rng(5)
    n, k = 5, 2
    vals = rng.normal(size=num_coalitions(n, k)) * 0.8
    model = ShapleyModel(
        feature_names=[f"f{i}" for i in range(n)],
        k=k,
        bias=0.3,
        indices=vals,
        normalization=np.column_stack([np.zeros(n), np.ones(n)]),
    )
    m = mobius_from_shapley(model.index_set_function())
    shapley_values = shapley_from_mobius(m).values[:n]

    samples = 100_000
    h = 1e-4
    x = rng.uniform(size=(samples, n))
    for i in range(n):
        up = x.copy()
        dn = x.copy()
        up[:, i] = np.clip(x[:, i] + h, 0.0, 1.0)
        dn[:, i] = np.clip(x[:, i] - h, 0.0, 1.0)
        grads = (model.logit_normalized(up) - model.logit_normalized(dn)) / (up[:, i] - dn[:, i])
        mc = grads.mean()
        se = grads.std() / np.sqrt(samples)
        assert abs(mc - shapley_values[i]) < 3 * se + 1e-3, (
            f"feature {i}: MC {mc:.5f} vs Shapley {shapley_values[i]:.5f} (se {se:.2e})"
        )
