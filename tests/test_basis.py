from itertools import combinations

import numpy as np
import pytest

from shapreg.analysis import sensitivity_to_label_flip
from shapreg.basis import design_matrix
from shapreg.data import Dataset
from shapreg.games import (
    Basis,
    SetFunction,
    enumerate_coalitions,
    k_additive_maps,
    mobius_from_shapley,
    num_coalitions,
    shapley_from_mobius,
    transposed_min_terms,
)
from shapreg.model import ShapleyModel
from shapreg.train import FitConfig

from choquet_reference import capacity_lattice, choquet_sorted


def unit_rows(rng, big_n, n):
    """Uniform rows of [0,1]^n with some entries pinned to 0 and to 1."""
    x = rng.uniform(size=(big_n, n))
    x[rng.uniform(size=x.shape) < 0.1] = 0.0
    x[rng.uniform(size=x.shape) < 0.1] = 1.0
    return x


def test_phi_singleton_is_identity():
    """phi_{i}(x) = x_i: at every order the singleton columns of a design are
    its rows, bit for bit."""
    x = unit_rows(np.random.default_rng(0), 40, 5)
    for k in range(1, 6):
        assert np.array_equal(design_matrix(x, k).values[:, :5], x)


def test_phi_pair_vanishes_on_diagonal():
    t = np.array([0.0, 0.25, 1.0, 1 / 3])
    design = design_matrix(np.column_stack([t, t, t]), 3).values
    assert np.array_equal(design[:, 3:6], np.zeros((4, 3)))


def test_phi_pair_hand_value():
    design = design_matrix(np.array([[0.4, 0.8], [0.8, 0.4], [0.0, 1.0]]), 2).values
    assert design[:, 2] == pytest.approx([-0.2, -0.2, -0.5])


@pytest.mark.parametrize("n,k", [(2, 2), (5, 2), (6, 3), (9, 4)])
def test_pair_columns_are_the_closed_form_to_the_bit(n, k):
    """phi_{ij}(x) = (-x_i / 2 - x_j / 2) + min(x_i, x_j), summed in the
    design's own order (ascending subset position), for each pair column at
    every order that holds pairs."""
    x = unit_rows(np.random.default_rng([n, k]), 60, n)
    pairs = design_matrix(x, k).values[:, n:n + n * (n - 1) // 2]
    for col, (i, j) in enumerate(combinations(range(n), 2)):
        expected = (-0.5 * x[:, i] - 0.5 * x[:, j]) + np.minimum(x[:, i], x[:, j])
        assert pairs[:, col].tobytes() == expected.tobytes(), (i, j)


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
    assert d.values.shape == (3, 36)
    assert num_coalitions(8, 2) == 36


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
    """A label-flip study's L is the largest row norm of its design: at k=1
    the design is the normalized rows, and (1, 1) outweighs (1, 0)."""
    x = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
    ds = Dataset(x=x, y=np.array([0, 1, 0, 1, 0, 1]), feature_names=["a", "b"])
    study = sensitivity_to_label_flip(ds, 1, FitConfig(), repeats=1)
    assert study.row_norm == pytest.approx(np.sqrt(2.0))


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


def superset_csr(n, k, weights):
    """The superset map W[C, B] = weights[|B| - |C|] over non-empty C <= B as
    a scipy CSR matrix, built from bit-masks; zero weights are not stored."""
    sparse = pytest.importorskip("scipy.sparse")
    index = {m: i for i, m in enumerate(enumerate_coalitions(n, k))}
    rows, cols, data = [], [], []
    for sup_mask, sup in index.items():
        sub_mask = sup_mask
        while sub_mask:
            w = weights[sup_mask.bit_count() - sub_mask.bit_count()]
            if w != 0.0:
                rows.append(index[sub_mask])
                cols.append(sup)
                data.append(w)
            sub_mask = (sub_mask - 1) & sup_mask
    return sparse.csr_matrix((data, (rows, cols)), shape=(len(index), len(index)))


@pytest.mark.parametrize("n,k,big_n", [(1, 1, 3), (4, 4, 1), (4, 4, 17), (5, 3, 0), (6, 6, 1),
                                       (8, 2, 300), (8, 8, 120), (10, 3, 100), (10, 10, 20),
                                       (12, 4, 50), (40, 2, 30)])
def test_design_and_maps_match_a_sparse_product_to_the_bit(n, k, big_n):
    """The design is M W for the min-term matrix M and the maps are W v,
    summed in the order of a CSR product, so they agree with scipy's bit for
    bit, signed zeros included."""
    rng = np.random.default_rng([n, k, big_n])
    x = rng.uniform(size=(big_n, n))
    x[rng.uniform(size=x.shape) < 0.2] = 0.0
    x[rng.uniform(size=x.shape) < 0.1] = 1.0
    maps = k_additive_maps(n, k)
    to_mobius = superset_csr(n, k, maps.inversion)
    to_shapley = superset_csr(n, k, maps.averaging)

    expected = np.ascontiguousarray(transposed_min_terms(x, k).T @ to_mobius)
    design = design_matrix(x, k).values
    assert design.flags.c_contiguous
    assert design.tobytes() == expected.tobytes()

    v = rng.normal(size=num_coalitions(n, k)) * 10.0 ** rng.integers(-8, 8, size=num_coalitions(n, k))
    v[::3] = 0.0
    v[1::7] = -0.0
    assert maps.to_mobius(v).tobytes() == (to_mobius @ v).tobytes()
    assert maps.to_shapley(v).tobytes() == (to_shapley @ v).tobytes()
