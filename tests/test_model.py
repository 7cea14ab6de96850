import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import shapreg
from shapreg.games import Basis, SetFunction, mobius_from_shapley, num_coalitions
from shapreg.model import LOGIT_BLOCK, ShapleyModel, apply_normalization, expit

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
    """NaN, and +-inf, which clipping would map into the box, are refused."""
    model = make_model()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            model.predict_proba(np.array([[0.1, bad, 0.3]]))


def test_dimension_mismatch_rejected():
    model = make_model()
    with pytest.raises(ValueError, match="features"):
        model.predict_proba(np.zeros((2, 5)))
    # a 3-D input is refused by the shape check, not left to numpy
    # broadcasting; (2, 3, 3) would broadcast against the 3 bounds
    for shape in [(2, 3, 2), (2, 3, 3), (1, 3, 1)]:
        for score in (model.normalize, model.logit, model.predict_proba, model.predict,
                      model.logit_normalized):
            with pytest.raises(ValueError, match="features"):
                score(np.zeros(shape))


def test_one_row_and_zero_rows():
    model = make_model(bias=0.25)
    row = np.array([0.2, 0.7, 0.4])
    assert model.logit(row).shape == (1,)
    assert model.logit(row).tobytes() == model.logit(row[None, :]).tobytes()
    for score in (model.logit, model.predict_proba, model.logit_normalized):
        assert score(np.zeros((0, 3))).shape == (0,)


def test_logit_is_logit_normalized_of_normalize_to_the_bit():
    """logit skips the unit-box check on normalize's output; the bits are
    those of the checked path."""
    rng = np.random.default_rng(8)
    bounds = np.array([[-1.0, 2.0], [0.5, 0.5], [0.0, 3.0], [1.0, 4.0]])
    model = make_model(n=4, k=3, bias=-0.3, bounds=bounds, seed=8)
    for rows in (1, 3, 4, LOGIT_BLOCK + 1, 2_051):
        x = rng.uniform(-2.0, 5.0, size=(rows, 4))  # some rows outside the bounds
        assert model.logit(x).tobytes() == model.logit_normalized(model.normalize(x)).tobytes()


def test_normalization_and_expit_never_write_their_inputs():
    """apply_normalization (which train.prepare hands the training rows),
    normalize and expit compute in arrays of their own: read-only inputs
    are accepted and every input keeps its values, with a constant column
    and values outside the bounds."""
    bounds = np.array([[0.0, 1.0], [2.0, 2.0], [-1.0, 3.0]])
    x = np.array([[0.5, 7.0, -5.0], [-3.0, 2.0, 9.0], [1.5, -1.0, 1.0], [-0.0, 2.0, 3.0]])
    z = np.array([-800.0, -1.0, -0.0, 2.0, 40.0, 800.0])
    model = make_model(bounds=bounds)
    inputs = (x, bounds, z)
    kept = [a.copy() for a in inputs]
    for a in inputs:
        a.setflags(write=False)
    normalized = apply_normalization(x, bounds)
    assert not np.shares_memory(normalized, x)
    assert normalized.tobytes() == model.normalize(x).tobytes()
    model.predict_proba(x)
    assert not np.shares_memory(expit(z), z)
    for a, before in zip(inputs, kept):
        assert a.tobytes() == before.tobytes()
    # the same bits as the formula computed in fresh temporaries
    span = bounds[:, 1] - bounds[:, 0]
    reference = (x - bounds[:, 0]) / np.where(span > 0, span, 1.0)
    reference[:, span == 0] = 0.0
    assert normalized.tobytes() == np.clip(reference, 0.0, 1.0).tobytes()
    with np.errstate(over="ignore"):
        assert expit(z).tobytes() == (1.0 / (1.0 + np.exp(-z))).tobytes()


def test_construction_freezes_copies_not_the_callers_arrays():
    """A model and a set function store read-only copies of the arrays they
    are given; the caller's arrays stay writeable and unshared."""
    indices, bounds = np.zeros(num_coalitions(3, 2)), np.column_stack([np.zeros(3), np.ones(3)])
    model = make_model(indices=indices, bounds=bounds)
    values = np.zeros(num_coalitions(3, 2))
    game = SetFunction(3, 2, Basis.MOBIUS, values)
    for given, stored in ((indices, model.indices), (bounds, model.normalization),
                          (values, game.values)):
        assert given.flags.writeable and not stored.flags.writeable
        assert not np.shares_memory(given, stored)


def test_expit_of_a_scalar_is_a_numpy_float():
    for z in (0.5, -3, np.float64(2.0), np.float32(-1.5), np.array(4.0)):
        p = expit(z)
        assert type(p) is np.float64, type(z)
        assert p == 1.0 / (1.0 + np.exp(-float(z)))


def test_invalid_normalization_rejected():
    with pytest.raises(ValueError):
        make_model(bounds=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))


def test_expit_matches_scipy():
    """numpy's exp may differ from the C library's by an ulp (the AVX-512
    loop does, on ~4% of arguments), and 1 / (1 + e) carries that through:
    up to 2 ulps, and 4 where 1 + e rounds at the 2^53 scale (z near -37)."""
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(0)
    z = np.concatenate([np.linspace(-700.0, 700.0, 140_001), rng.uniform(-40.0, 40.0, 100_000)])
    ours, ref = expit(z), special.expit(z)
    assert np.all(np.abs(ours - ref) <= 4 * np.spacing(ref))
    # the exact 0 and 1 tails, where scipy gives them
    tails = np.array([-np.inf, -1e6, -800.0, -745.2, -709.79, 37.0, 40.0, 800.0, 1e6, np.inf])
    assert np.array_equal(special.expit(tails), [0.0] * 5 + [1.0] * 5)
    assert np.array_equal(expit(tails), special.expit(tails))
    assert np.array_equal(ours == 0.0, ref == 0.0)
    assert np.array_equal(ours == 1.0, ref == 1.0)
    # just above the overflow of exp(-z) the result is tiny but not 0
    assert 0.0 < expit(-709.78) == special.expit(-709.78)


def test_expit_is_warning_free_at_the_extremes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert expit(np.array([1e6, -1e6])).tolist() == [1.0, 0.0]
        assert expit(-1e6) == 0.0


@pytest.mark.parametrize("n,k", [(10, 3), (6, 6), (20, 2)])
def test_a_rows_logit_does_not_depend_on_the_rows_scored_with_it(n, k):
    B = LOGIT_BLOCK
    rng = np.random.default_rng(12)
    model = make_model(n=n, k=k, bias=0.37, seed=n + k)
    for rows in (1, 2, 3, 5, B - 1, B, B + 1, B + 3, 3 * B + 7, 20_001):
        x = rng.uniform(size=(rows, n))
        full = model.logit_normalized(x)
        assert full.shape == (rows,)
        # one-row calls on every row, or on every 97th of the largest batch
        picked = range(0, rows, 97 if rows > 3 * B + 7 else 1)
        one_row = np.concatenate([model.logit_normalized(x[i]) for i in picked])
        assert one_row.tobytes() == full[picked.start::picked.step].tobytes()
        for chunk in (3, 37, B + 1):
            parts = [model.logit_normalized(x[i:i + chunk]) for i in range(0, rows, chunk)]
            assert np.concatenate(parts).tobytes() == full.tobytes(), (rows, chunk)


# Logits of every row count in a fresh process, hashed; the BLAS thread
# count is set by the environment before numpy loads.  OpenBLAS splits the
# products of (20, 3) (D = 1350) over two threads, and the smaller ones not.
LOGIT_DIGEST = r"""
import hashlib

import numpy as np

from shapreg.games import num_coalitions
from shapreg.model import LOGIT_BLOCK, ShapleyModel

B = LOGIT_BLOCK
rng = np.random.default_rng(12)
digest = hashlib.sha256()
for n, k in [(10, 3), (6, 6), (20, 2), (20, 3)]:
    model = ShapleyModel(feature_names=[f"f{i}" for i in range(n)], k=k, bias=0.37,
                         indices=rng.normal(size=num_coalitions(n, k)),
                         normalization=np.tile([0.0, 1.0], (n, 1)))
    for rows in (1, 2, 3, 5, B - 1, B, B + 1, B + 3, 3 * B + 7, 20_001):
        digest.update(model.logit_normalized(rng.uniform(size=(rows, n))).tobytes())
print(digest.hexdigest())
"""


def test_logits_do_not_depend_on_the_blas_thread_count():
    """Checked for the BLAS numpy is built against (OpenBLAS in the test
    environment); the padded block product is what makes it hold there."""
    src = str(Path(shapreg.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", LOGIT_DIGEST], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split()[-1])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("bad", [np.nan, 1.5, -0.5])
def test_a_bad_row_in_the_last_block_raises(bad):
    model = make_model(n=4, k=2)
    x = np.random.default_rng(3).uniform(size=(3 * LOGIT_BLOCK + 7, 4))
    x[-1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        model.logit_normalized(x)
