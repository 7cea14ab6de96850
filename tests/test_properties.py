"""Property tests for the k-additive structure (the peel recurrence behind
the min-term matrix and the Shapley <-> Moebius superset maps) and for the
CSV loader."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shapreg.data import load_csv
from shapreg.games import (
    Basis,
    SetFunction,
    enumerate_coalitions,
    indices_of,
    min_terms,
    mobius_from_shapley,
    num_coalitions,
    shapley_from_mobius,
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
    terms = min_terms(x, k)
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
