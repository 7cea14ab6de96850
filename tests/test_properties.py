"""Property tests for the k-additive structure (the peel recurrence behind
the min-term matrix and the Shapley <-> Moebius superset maps), for the CSV
loader and for the model file."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shapreg.data import load_csv
from shapreg.model import ShapleyModel
from shapreg.games import (
    Basis,
    SetFunction,
    enumerate_coalitions,
    indices_of,
    mobius_from_shapley,
    num_coalitions,
    shapley_from_mobius,
    transposed_min_terms,
)

unit = st.floats(0.0, 1.0, allow_nan=False)
coef = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def universes(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    return n, draw(st.integers(1, n))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), universe=universes())
def test_min_terms_equal_brute_force_minima(data, universe):
    n, k = universe
    x = data.draw(arrays(float, (data.draw(st.integers(1, 5)), n), elements=unit))
    terms = transposed_min_terms(x, k).T
    masks = enumerate_coalitions(n, k)
    assert terms.shape == (x.shape[0], len(masks))
    for j, mask in enumerate(masks):
        assert np.array_equal(terms[:, j], x[:, list(indices_of(mask))].min(axis=1))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), universe=universes())
def test_shapley_mobius_round_trip(data, universe):
    n, k = universe
    values = data.draw(arrays(float, num_coalitions(n, k), elements=coef))
    index_fn = SetFunction(n=n, k=k, basis=Basis.SHAPLEY, values=values)
    back = shapley_from_mobius(mobius_from_shapley(index_fn))
    assert np.abs(back.values - values).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(1, 6), st.integers(1, 4)))
def test_csv_loader_parses_cells_like_float(tmp_path_factory, data, shape):
    values = data.draw(arrays(float, shape, elements=st.floats(allow_nan=False, allow_infinity=False)))
    fmt = data.draw(st.sampled_from([repr, "{:.5e}".format, "{:.3f}".format, " {!r}".format]))
    labels = data.draw(arrays(int, shape[0], elements=st.integers(0, 1)))
    tokens = [[fmt(float(v)) for v in row] for row in values]
    lines = [",".join([f"f{j}" for j in range(shape[1])] + ["y"])]
    lines += [",".join(row + [str(y)]) for row, y in zip(tokens, labels)]
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    ds = load_csv(path, label_column="y")
    expected = np.array([[float(tok) for tok in row] for row in tokens])
    assert np.array_equal(ds.x.view(np.int64), expected.view(np.int64))  # bit for bit
    assert np.array_equal(ds.y, labels)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), universe=universes(max_n=6))
def test_model_json_round_trip_bit_exact(tmp_path_factory, data, universe):
    n, k = universe
    bounds = np.sort(data.draw(arrays(float, (n, 2), elements=st.floats(-1e6, 1e6))), axis=1)
    model = ShapleyModel(
        feature_names=[f"f{i}" for i in range(n)],
        k=k,
        bias=data.draw(finite),
        indices=data.draw(arrays(float, num_coalitions(n, k), elements=st.floats(-1e3, 1e3))),
        normalization=bounds,
    )
    path = tmp_path_factory.mktemp("model") / "model.json"
    model.save(path)
    back = ShapleyModel.load(path)
    assert back.feature_names == model.feature_names and back.k == model.k
    assert np.float64(back.bias).view(np.int64) == np.float64(model.bias).view(np.int64)
    for field in ("indices", "normalization", "mobius"):
        assert np.array_equal(getattr(back, field).view(np.int64), getattr(model, field).view(np.int64))
    x = data.draw(arrays(float, (3, n), elements=st.floats(-2e6, 2e6)))
    with np.errstate(over="ignore"):  # a subnormal span scales to inf, clipped to 1
        assert np.array_equal(back.predict_proba(x), model.predict_proba(x))
