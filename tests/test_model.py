import numpy as np
import pytest

from shapreg.games import mobius_from_shapley, num_coalitions
from shapreg.model import ShapleyModel

from choquet_reference import capacity_lattice, choquet_sorted


def make_model(n=3, k=2, bias=0.0, indices=None, bounds=None, seed=0):
    rng = np.random.default_rng(seed)
    if indices is None:
        indices = rng.normal(size=num_coalitions(n, k))
    if bounds is None:
        bounds = np.column_stack([np.zeros(n), np.ones(n)])
    return ShapleyModel(
        feature_names=[f"f{i}" for i in range(n)],
        k=k, bias=bias, indices=indices, normalization=bounds,
    )


def test_normalization_clips_and_scales():
    model = make_model(n=2, k=1, indices=np.array([1.0, 1.0]),
                       bounds=np.array([[0.0, 10.0], [5.0, 15.0]]))
    out = model.normalize(np.array([[5.0, 10.0], [-3.0, 99.0]]))
    assert out[0] == pytest.approx([0.5, 0.5])
    assert out[1] == pytest.approx([0.0, 1.0])  # clipped


def test_degenerate_feature_maps_to_zero():
    model = make_model(n=2, k=1, indices=np.array([1.0, 1.0]),
                       bounds=np.array([[2.0, 2.0], [0.0, 1.0]]))
    out = model.normalize(np.array([[7.0, 0.5]]))
    assert out[0] == pytest.approx([0.0, 0.5])


def test_zero_indices_logit_is_bias():
    model = make_model(bias=1.7, indices=np.zeros(num_coalitions(3, 2)))
    x = np.random.default_rng(1).uniform(size=(5, 3))
    assert model.logit(x) == pytest.approx(np.full(5, 1.7))


def test_k1_model_is_affine():
    w = np.array([0.5, -1.0, 2.0])
    model = make_model(n=3, k=1, bias=0.25, indices=w)
    x = np.random.default_rng(2).uniform(size=(8, 3))
    assert model.logit(x) == pytest.approx(0.25 + x @ w)


def test_probabilities_strictly_inside_unit_interval():
    model = make_model(seed=3)
    p = model.predict_proba(np.random.default_rng(4).uniform(size=(50, 3)))
    assert np.all((p > 0) & (p < 1))
    # every basis function vanishes at the origin, so the zero-bias model is at 0.5
    assert model.predict_proba(np.zeros((1, 3)))[0] == pytest.approx(0.5)


def test_sigmoid_asymptote_at_large_bias():
    model = make_model(bias=30.0, indices=np.zeros(num_coalitions(3, 2)))
    p = model.predict_proba(np.zeros((1, 3)))
    assert p[0] > 1 - 1e-9


def test_tie_at_half_classifies_positive():
    model = make_model(bias=0.0, indices=np.zeros(num_coalitions(3, 2)))
    assert model.predict(np.zeros((1, 3)))[0] == 1


def test_logit_matches_mobius_path():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3):
        model = make_model(n=6, k=k, bias=0.4,
                           indices=rng.normal(size=num_coalitions(6, k)))
        m = mobius_from_shapley(model.index_set_function())
        x = rng.uniform(size=(7, 6))
        lattice = capacity_lattice(m)
        expected = 0.4 + np.array([choquet_sorted(lattice, row) for row in x])
        assert np.abs(model.logit(x) - expected).max() < 1e-10


def test_json_round_trip_bit_exact(tmp_path):
    model = make_model(seed=6, bias=np.pi)
    path = tmp_path / "model.json"
    model.save(path)
    back = ShapleyModel.load(path)
    assert back.feature_names == model.feature_names
    assert back.k == model.k
    assert back.bias == model.bias  # exact, not approx
    assert np.array_equal(back.indices, model.indices)
    assert np.array_equal(back.normalization, model.normalization)
    # and the serialized form itself is stable
    assert back.to_json() == model.to_json()


def test_nan_input_rejected():
    model = make_model()
    with pytest.raises(ValueError, match="finite"):
        model.predict_proba(np.array([[0.1, np.nan, 0.3]]))


def test_dimension_mismatch_rejected():
    model = make_model()
    with pytest.raises(ValueError):
        model.predict_proba(np.zeros((2, 5)))


def test_invalid_normalization_rejected():
    with pytest.raises(ValueError):
        make_model(bounds=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
