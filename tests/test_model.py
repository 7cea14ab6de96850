import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import shapreg
from shapreg.games import mobius_from_shapley, num_coalitions
from shapreg.model import LOGIT_BLOCK, ShapleyModel, expit

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
    with pytest.raises(ValueError):
        model.predict_proba(np.zeros((2, 5)))


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


# Blocked logits against one product over all rows, in a process whose BLAS
# runs one thread: a threaded BLAS splits the one product at row counts of
# its own, and rounds the last columns of each part its own way.
BLOCK_BOUNDARIES = r"""
import json

import numpy as np

from shapreg.games import num_coalitions, transposed_min_terms
from shapreg.model import LOGIT_BLOCK, ShapleyModel

B = LOGIT_BLOCK
rng = np.random.default_rng(12)
mismatched = {}
for n, k in [(10, 3), (6, 6), (20, 2)]:
    model = ShapleyModel(feature_names=[f"f{i}" for i in range(n)], k=k, bias=0.37,
                         indices=rng.normal(size=num_coalitions(n, k)),
                         normalization=np.tile([0.0, 1.0], (n, 1)))
    for rows in (1, B - 1, B, B + 1, 3 * B + 7):
        x = rng.uniform(size=(rows, n))
        want = model.bias + model.mobius @ transposed_min_terms(x, k)
        got = model.logit_normalized(x)
        assert got.shape == want.shape
        mismatched[f"{n},{k},{rows}"] = int(np.sum(got.view(np.int64) != want.view(np.int64)))
print(json.dumps(mismatched))
"""


def test_blocked_logits_match_one_product_to_the_bit():
    one_thread = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS")}
    src = str(Path(shapreg.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", BLOCK_BOUNDARIES],
                          env={**os.environ, **one_thread, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    mismatched = json.loads(done.stdout.splitlines()[-1])
    assert len(mismatched) == 15
    assert {key: v for key, v in mismatched.items() if v} == {}


@pytest.mark.parametrize("bad", [np.nan, 1.5, -0.5])
def test_a_bad_row_in_the_last_block_raises(bad):
    model = make_model(n=4, k=2)
    x = np.random.default_rng(3).uniform(size=(3 * LOGIT_BLOCK + 7, 4))
    x[-1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        model.logit_normalized(x)
