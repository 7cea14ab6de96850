"""Library refusals: each call below breaks one documented precondition and
raises the error its message names, before any work."""

import json

import numpy as np
import pytest

from shapreg.analysis import main_effects, sensitivity_to_label_flip
from shapreg.cv import k_sweep_benchmark, noise_robustness, stratified_folds
from shapreg.data import DataError, Dataset, gen_random_noise, load_csv, undersample
from shapreg.games import Basis, SetFunction, choquet_mobius, transposed_min_terms
from shapreg.metrics import threshold_metrics
from shapreg.model import ShapleyModel
from shapreg.train import FitConfig, loss_and_gradient, sample_weights

NOISE = gen_random_noise(3, 20, seed=0)
MODEL = ShapleyModel(["a", "b"], 1, 0.0, np.zeros(2), [[0.0, 1.0], [0.0, 1.0]])
MODEL_JSON = MODEL.to_json()


def model_json(**fields):
    """MODEL_JSON with ``fields`` replaced; a field given as ... is left out."""
    payload = {**json.loads(MODEL_JSON), **fields}
    return json.dumps({name: value for name, value in payload.items() if value is not ...})


def csv_file(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return path


REFUSALS = {
    "main_effects of no models": (
        lambda tmp: main_effects([]), ValueError, "need at least one model"),
    "one fold": (
        lambda tmp: stratified_folds(np.array([0, 1]), 1, 0), ValueError,
        "need at least 2 folds"),
    "1-D x": (
        lambda tmp: Dataset(x=np.zeros(3), y=np.zeros(3), feature_names=["a"], name="d"),
        DataError, "feature matrix must be 2-D, got shape (3,)"),
    "label count": (
        lambda tmp: Dataset(x=np.zeros((3, 1)), y=np.zeros(2), feature_names=["a"], name="d"),
        DataError, "labels have shape (2,), expected (3,)"),
    "empty csv": (
        lambda tmp: load_csv(csv_file(tmp, ""), "label"), DataError, "empty file"),
    "every row dropped": (
        lambda tmp: load_csv(csv_file(tmp, "a,label\n,1\nx,0\n"), "label", drop_missing=True),
        DataError, "no usable data rows"),
    "undersample of one class": (
        lambda tmp: undersample(Dataset(x=np.zeros((10, 1)), y=np.ones(10, dtype=int),
                                        feature_names=["a"], name="d"), 0.5),
        ValueError, "cannot undersample d: it has 0 negative and 10 positive rows"),
    "no features": (
        lambda tmp: gen_random_noise(0, 10), ValueError, "n and N must be >= 1"),
    "set function length": (
        lambda tmp: SetFunction(3, 2, Basis.MOBIUS, np.zeros(5)), ValueError,
        "expected 6 values"),
    "set function NaN": (
        lambda tmp: SetFunction(2, 1, Basis.MOBIUS, np.array([0.0, np.nan])), ValueError,
        "set function values must be finite"),
    "1-D min-term input": (
        lambda tmp: transposed_min_terms(np.zeros(3), 1), ValueError,
        "expected a 2-D sample matrix, got shape (3,)"),
    "choquet point shape": (
        lambda tmp: choquet_mobius(SetFunction(2, 1, Basis.MOBIUS, np.zeros(2)), np.zeros(3)),
        ValueError, "expected a point in R^2, got shape (3,)"),
    "threshold lengths": (
        lambda tmp: threshold_metrics([0, 1], [0]), ValueError,
        "y_true and y_pred must have equal lengths"),
    "index count": (
        lambda tmp: ShapleyModel(["a", "b"], 1, 0.0, np.zeros(3), np.zeros((2, 2))),
        ValueError, "expected 2 indices for (n=2, k=1), got shape (3,)"),
    "normalization shape": (
        lambda tmp: ShapleyModel(["a", "b"], 1, 0.0, np.zeros(2), np.zeros((3, 2))),
        ValueError, "normalization must have shape (2, 2), got (3, 2)"),
    "repeated model names": (
        lambda tmp: ShapleyModel(["a", "a"], 1, 0.0, np.zeros(2), np.zeros((2, 2))),
        ValueError, "feature_names repeat the name(s) ['a']"),
    "model bias NaN, built": (
        lambda tmp: ShapleyModel(["a", "b"], 1, float("nan"), np.zeros(2), np.zeros((2, 2))),
        ValueError, "bias must be a finite number, got nan"),
    "model index inf, built": (
        lambda tmp: ShapleyModel(["a", "b"], 1, 0.0, [0.0, np.inf], np.zeros((2, 2))),
        ValueError, "indices must be finite numbers"),
    "model bound NaN, built": (
        lambda tmp: ShapleyModel(["a", "b"], 1, 0.0, np.zeros(2), [[0.0, 1.0], [np.nan, 1.0]]),
        ValueError, "normalization must be finite numbers"),
    "repeated dataset names": (
        lambda tmp: Dataset(x=np.zeros((3, 2)), y=np.zeros(3), feature_names=["a", "a"]),
        DataError, "feature_names repeat the name(s) ['a']"),
    "model file n": (
        lambda tmp: ShapleyModel.from_json(MODEL_JSON.replace('"n": 2', '"n": 3')),
        ValueError, "inconsistent feature count in model file"),
    "model file of a list": (
        lambda tmp: ShapleyModel.from_json("[]"), ValueError,
        "a model is a JSON object, got list"),
    "model names of a number": (
        lambda tmp: ShapleyModel.from_json(model_json(feature_names=5)), ValueError,
        "model field 'feature_names' must be a list of strings, got 5"),
    "model bias null": (
        lambda tmp: ShapleyModel.from_json(model_json(bias=None)), ValueError,
        "model field 'bias' must be a finite number, got None"),
    "model bias NaN": (
        lambda tmp: ShapleyModel.from_json(model_json(bias=float("nan"))), ValueError,
        "model field 'bias' must be a finite number, got nan"),
    "model index past float64": (
        lambda tmp: ShapleyModel.from_json(model_json(indices=[0.0, 10 ** 400])), ValueError,
        "model field 'indices' must be a list of finite numbers, got [0.0, 1000"),
    "model k of a bool": (
        lambda tmp: ShapleyModel.from_json(model_json(k=True)), ValueError,
        "model field 'k' must be an int, got True"),
    "model normalization of a null": (
        lambda tmp: ShapleyModel.from_json(model_json(normalization=[[None, 1.0], [0.0, 1.0]])),
        ValueError, "model field 'normalization' must be a list of finite-number lists"),
    "model without indices": (
        lambda tmp: ShapleyModel.from_json(model_json(indices=...)), ValueError,
        "model field 'indices' must be a list of finite numbers, got None"),
    "penalty l3": (
        lambda tmp: FitConfig(penalty="l3"), ValueError, "penalty must be one of"),
    "balanced weighting": (
        lambda tmp: FitConfig(class_weighting="balanced"), ValueError,
        "class_weighting must be one of"),
    "inverse frequency of one class": (
        lambda tmp: sample_weights(np.ones(4), "inverse_frequency"), ValueError,
        "inverse-frequency weighting needs both classes present"),
    "loss rows": (
        lambda tmp: loss_and_gradient((0.0, np.zeros(2)), np.zeros((3, 2)), np.zeros(2),
                                      FitConfig()),
        ValueError, "label count does not match design rows"),
    "sweep of no orders": (
        lambda tmp: k_sweep_benchmark(NOISE, []), ValueError,
        "a sweep needs at least 1 order and 1 penalty"),
    "sweep of no penalties": (
        lambda tmp: k_sweep_benchmark(NOISE, [1], penalties=[]), ValueError,
        "a sweep needs at least 1 order and 1 penalty"),
    "robustness labels": (
        lambda tmp: noise_robustness(MODEL, np.zeros((10, 2)), np.zeros(1)), ValueError,
        "y_test has shape (1,), expected (10,): one label per x_test row"),
    "no flips": (
        lambda tmp: sensitivity_to_label_flip(NOISE, 1, FitConfig(), repeats=0), ValueError,
        "repeats must be >= 1"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=list(REFUSALS))
def test_library_refuses(tmp_path, call, error, message):
    with pytest.raises(error) as caught:
        call(tmp_path)
    assert message in str(caught.value)
