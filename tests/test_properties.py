"""Property tests for the k-additive structure: the peel recurrence behind
the min-term matrix and the Shapley <-> Moebius superset maps."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
