import argparse
import csv
import dataclasses
import inspect
import io
import json
import re
import shlex
import threading
from pathlib import Path

import numpy as np
import pytest

from shapreg import analysis, cli, cv, train
from shapreg.cli import (
    EXIT_DATA,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from shapreg.analysis import (
    GapCell,
    GapExperiment,
    LabelFlipStudy,
    gap_experiment,
    sensitivity_to_label_flip,
)
from shapreg.cv import (
    BootstrapResult,
    CVReport,
    FoldReport,
    ResourceProfile,
    SweepCell,
    SweepReport,
    bootstrap_stability,
    default_lambda_grid,
    k_sweep_benchmark,
    nested_cv,
    noise_robustness,
)
from shapreg.data import gen_pure_pairwise
from shapreg.games import transposed_min_terms
from shapreg.model import ShapleyModel
from shapreg.train import FitConfig, at_order, fit, prepare

jsonschema = pytest.importorskip("jsonschema")

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = ROOT / "docs" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def strict_json(path):
    """A written report, parsed with NaN, Infinity and -Infinity refused:
    Python's json module writes and reads them, but they are not JSON."""
    def refuse(token):
        raise ValueError(f"{Path(path).name} holds {token}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


def validate(path, schema_name):
    jsonschema.validate(strict_json(path), load_schema(schema_name))


@pytest.fixture
def toy_csv(tmp_path):
    rng = np.random.default_rng(0)
    n, big_n = 4, 120
    x = rng.uniform(size=(big_n, n))
    logit = 4.0 * (x[:, 0] - 0.5) - 3.0 * (x[:, 1] - 0.5)
    y = (rng.uniform(size=big_n) < 1 / (1 + np.exp(-logit))).astype(int)
    path = tmp_path / "toy.csv"
    header = ",".join([f"f{i}" for i in range(n)] + ["y"])
    lines = [header] + [
        ",".join([repr(float(v)) for v in x[i]] + [str(int(y[i]))]) for i in range(big_n)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# fit / predict
# ---------------------------------------------------------------------------

def test_fit_writes_model_and_report(toy_csv, tmp_path):
    out = tmp_path / "run"
    code = run("fit", "--dataset", toy_csv, "--label-column", "y",
               "--k", "2", "--penalty", "l2", "--lambda", "1.0",
               "--seed", "1", "--out-dir", out)
    assert code == EXIT_OK
    validate(out / "model.json", "model.schema.json")
    validate(out / "fit_report.json", "fit_report.schema.json")
    assert sorted(p.name for p in out.glob("*.json")) == ["fit_report.json", "model.json"]
    report = strict_json(out / "fit_report.json")
    assert report["converged"] is True and report["status"] == "converged"
    assert "objective_trace" not in report


def test_fit_verbose_trace(toy_csv, tmp_path, capsys):
    """fit_report.json never holds the objective trace, which stays on the
    library's FitResult: --verbose-trace is refused by name before any
    work."""
    out = tmp_path / "run"
    assert run("fit", "--dataset", toy_csv, "--label-column", "y", "--k", "1",
               "--lambda", "1.0", "--out-dir", out, "--verbose-trace") == EXIT_USAGE
    assert "unrecognized arguments: --verbose-trace" in capsys.readouterr().err
    assert not out.exists()
    assert "objective_trace" not in load_schema("fit_report.schema.json")["properties"]


def test_fit_deterministic_bytes(toy_csv, tmp_path):
    args = ("fit", "--dataset", toy_csv, "--label-column", "y", "--k", "2",
            "--penalty", "l1", "--lambda", "0.5", "--seed", "7")
    run(*args, "--out-dir", tmp_path / "a")
    run(*args, "--out-dir", tmp_path / "b")
    assert (tmp_path / "a/model.json").read_bytes() == (tmp_path / "b/model.json").read_bytes()
    assert (tmp_path / "a/fit_report.json").read_bytes() == (tmp_path / "b/fit_report.json").read_bytes()


def test_fit_nonconvergence_exit_code(toy_csv, tmp_path):
    # k > n is a usage error
    assert run("fit", "--dataset", toy_csv, "--label-column", "y", "--k", "9",
               "--out-dir", tmp_path / "x") == EXIT_USAGE
    # a weakly regularized fit ends converged or not, never with an error
    code = run("fit", "--dataset", toy_csv, "--label-column", "y", "--k", "2",
               "--lambda", "0.01", "--out-dir", tmp_path / "nc")
    assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)


def test_fit_budget_exit_code(toy_csv, tmp_path, monkeypatch, capsys):
    # a one-iteration budget cannot converge from the zero start
    monkeypatch.setattr(train, "MAX_ITERS", 1)
    code = run("fit", "--dataset", toy_csv, "--label-column", "y", "--k", "2",
               "--lambda", "0.01", "--out-dir", tmp_path / "nc")
    assert code == EXIT_NO_CONVERGENCE
    assert "budget after 1 iterations" in capsys.readouterr().out
    report = json.loads((tmp_path / "nc/fit_report.json").read_text())
    assert report["converged"] is False and report["iterations"] == 1
    assert report["status"] == "budget"


def test_fit_separable_exit_code(tmp_path, capsys):
    """Unpenalized rows one threshold separates have no finite minimizer:
    the fit stops at a separating iterate and exits as not converged."""
    path = tmp_path / "threshold.csv"
    path.write_text("a,label\n" + "".join(f"{i / 10!r},{int(i > 5)}\n" for i in range(11)))
    out = tmp_path / "sep"
    code = run("fit", "--dataset", path, "--label-column", "label", "--k", "1",
               "--penalty", "none", "--out-dir", out)
    assert code == EXIT_NO_CONVERGENCE
    assert " separable after " in capsys.readouterr().out
    validate(out / "fit_report.json", "fit_report.schema.json")
    report = strict_json(out / "fit_report.json")
    assert report["status"] == "separable" and report["converged"] is False


@pytest.mark.parametrize("command, flag", [
    ("fit", ["--seed", "-1"]),
    ("fit", ["--k", "0"]),
    ("fit", ["--undersample-ratio", "0"]),
    ("fit", ["--undersample-ratio", "1.5"]),
    ("fit", ["--undersample-ratio", "nan"]),
    ("synth", ["--gen-n", "0"]),
    ("synth", ["--gen-samples", "0"]),
    ("synth", ["--gen-pairs", "0"]),
    ("synth", ["--seed", "-1"]),
    ("fit", ["--delimiter", ""]),
    ("fit", ["--delimiter", ";;"]),
    ("fit", ["--delimiter", '"']),
    ("fit", ["--delimiter", "\n"]),
    ("predict", ["--delimiter", ""]),
    ("predict", ["--delimiter", "\t\t"]),
    ("predict", ["--delimiter", '"']),
    ("predict", ["--delimiter", "\r"]),
])
def test_fit_and_synth_check_flags_before_any_work(toy_csv, tmp_path, capsys, monkeypatch,
                                                    command, flag):
    monkeypatch.setattr(cli, "load_csv", None)  # never reached
    monkeypatch.setattr(cli, "_generate", None)
    monkeypatch.setattr(cli, "_load_model", None)
    argv = {"fit": ["--dataset", toy_csv, "--label-column", "y"],
            "predict": ["--model", tmp_path / "model.json", "--dataset", toy_csv],
            "synth": ["--generator", "pure-pairwise"]}[command]
    assert run(command, *argv, *flag, "--out-dir", tmp_path / "out") == EXIT_USAGE
    assert flag[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_no_flag_parses_with_bare_int_or_float():
    """Bare int and float accept any sign, and float takes NaN and inf: every
    numeric flag uses one of the checked types instead, and its help states
    the values that type accepts."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    typed = 0
    for name, parser in subparsers.choices.items():
        for action in parser._actions:
            assert action.type not in (int, float), (name, action.option_strings)
            if action.type is not None:
                typed += 1
                assert "%(type)s" in action.help, (name, action.option_strings)
                assert action.type.__name__ in " ".join(parser.format_help().split())
    assert typed == 25


def test_a_tab_delimiter_reads_a_tsv(toy_csv, tmp_path):
    """--delimiter takes a tab: fit and predict read the tab-separated copy
    of toy.csv as they read the CSV."""
    tsv = tmp_path / "toy.tsv"
    tsv.write_text(toy_csv.read_text().replace(",", "\t"))
    for name, path, delimiter in (("csv", toy_csv, ","), ("tsv", tsv, "\t")):
        data = ["--dataset", path, "--label-column", "y", "--delimiter", delimiter]
        assert run("fit", *data, "--out-dir", tmp_path / name) == EXIT_OK
        assert run("predict", "--model", tmp_path / name / "model.json", *data,
                   "--out-dir", tmp_path / name) == EXIT_OK
    for name in ("model.json", "predictions.csv"):
        assert (tmp_path / "csv" / name).read_bytes() == (tmp_path / "tsv" / name).read_bytes()


def test_fit_predict_round_trip(toy_csv, tmp_path):
    out = tmp_path / "run"
    run("fit", "--dataset", toy_csv, "--label-column", "y", "--k", "2",
        "--lambda", "0.1", "--out-dir", out)
    code = run("predict", "--model", out / "model.json", "--dataset", toy_csv,
               "--label-column", "y", "--out-dir", out)
    assert code == EXIT_OK
    lines = (out / "predictions.csv").read_text().strip().splitlines()
    assert lines[0] == "row,probability,label_at_0.5"
    assert len(lines) == 121
    # training accuracy from the emitted file is high on this separable-ish toy
    import csv as _csv
    with open(out / "predictions.csv") as fh:
        rows = list(_csv.DictReader(fh))
    labels = np.array([int(r["label_at_0.5"]) for r in rows])
    truth = np.array([int(line.rsplit(",", 1)[1]) for line in toy_csv.read_text().splitlines()[1:]])
    assert (labels == truth).mean() > 0.8


def test_fit_on_a_synth_csv_is_the_library_fit(tmp_path):
    """Synthetic data reaches fit through synth's CSV, which round-trips the
    generator's dataset exactly."""
    assert run("synth", "--generator", "pure-pairwise", "--gen-n", "5", "--gen-samples", "120",
               "--gen-pairs", "2", "--seed", "4", "--out-dir", tmp_path / "s") == EXIT_OK
    assert run("fit", "--dataset", tmp_path / "s/pure_pairwise.csv", "--label-column", "label",
               "--penalty", "l1", "--lambda", "0.05", "--out-dir", tmp_path / "f") == EXIT_OK
    ds = gen_pure_pairwise(n=5, big_n=120, pairs=2, seed=4)
    fit(ds, 2, FitConfig(penalty="l1", lam=0.05)).model.save(tmp_path / "library.json")
    assert (tmp_path / "f/model.json").read_bytes() == (tmp_path / "library.json").read_bytes()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_fit_rejects_an_unusable_lambda(toy_csv, tmp_path, capsys, value):
    assert run("fit", "--dataset", toy_csv, "--label-column", "y", "--lambda", value,
               "--out-dir", tmp_path / "out") == EXIT_USAGE
    assert "--lambda" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_predict_dimension_mismatch(toy_csv, tmp_path):
    out = tmp_path / "run"
    run("fit", "--dataset", toy_csv, "--label-column", "y", "--k", "1",
        "--lambda", "1.0", "--out-dir", out)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n0.1,0.2\n")
    assert run("predict", "--model", out / "model.json", "--dataset", bad,
               "--out-dir", out) == EXIT_DATA


def test_predict_refuses_columns_the_model_does_not_name(tmp_path, capsys):
    """Swapping two columns, header included, keeps the count but would
    score every row on the wrong features."""
    assert run("synth", "--generator", "pure-pairwise", "--gen-n", "3", "--gen-samples", "60",
               "--gen-pairs", "2", "--seed", "1", "--out-dir", tmp_path / "s") == EXIT_OK
    data = tmp_path / "s/pure_pairwise.csv"
    assert run("fit", "--dataset", data, "--label-column", "label", "--lambda", "0.1",
               "--out-dir", tmp_path / "f") == EXIT_OK
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("".join(",".join([c, b, a, y]) + "\n" for a, b, c, y in
                               (line.split(",") for line in data.read_text().split())))
    assert swapped.read_text().startswith("x2,x1,x0,label\n")
    capsys.readouterr()
    assert run("predict", "--model", tmp_path / "f/model.json", "--dataset", swapped,
               "--label-column", "label", "--out-dir", tmp_path / "p") == EXIT_DATA
    assert "feature column 1 is 'x2', the model expects 'x0' there" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()
    assert run("predict", "--model", tmp_path / "f/model.json", "--dataset", data,
               "--label-column", "label", "--out-dir", tmp_path / "p") == EXIT_OK


@pytest.mark.parametrize("header", ["f0,y,y", "f0,f0,y"])
def test_fit_refuses_a_repeated_header_name(tmp_path, capsys, header):
    path = tmp_path / "rows.csv"
    path.write_text(header + "\n" + "".join(f"0.{i},{i % 2},{(i + 1) % 2}\n" for i in range(8)))
    assert run("fit", "--dataset", path, "--label-column", "y",
               "--out-dir", tmp_path / "out") == EXIT_DATA
    assert f"repeats the column name(s) ['{header.split(',')[1]}']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_predict_malformed_model(toy_csv, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run("predict", "--model", broken, "--dataset", toy_csv,
               "--label-column", "y", "--out-dir", tmp_path) == EXIT_DATA


@pytest.mark.parametrize("command", ["predict", "interactions"])
@pytest.mark.parametrize("fields", [None, {"feature_names": 5}, {"bias": None}],
                         ids=["list", "names-int", "bias-null"])
def test_a_malformed_model_file_is_a_data_error(toy_csv, tmp_path, capsys, command, fields):
    """A model file of valid JSON but the wrong shape (a list, or a field of
    the wrong kind) exits 2 naming the file, not with an exception out of
    main (a traceback and exit 1), and writes nothing."""
    model = ShapleyModel(["a", "b"], 2, 0.0, np.zeros(3), [[0.0, 1.0], [0.0, 1.0]])
    path = tmp_path / "model.json"
    path.write_text(json.dumps([] if fields is None else {**json.loads(model.to_json()),
                                                          **fields}))
    argv = {"predict": ["--model", path, "--dataset", toy_csv],
            "interactions": ["--models", path]}[command]
    assert run(command, *argv, "--out-dir", tmp_path / "out") == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: cannot read model file {path}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad_row, message", [
    ("0.1,nan,0.3,0.4,1", "data row 2, column 'f1'"),
    ("0.1,0.2,inf,0.4,0", "data row 2, column 'f2'"),
    ("NA,0.2,0.3,0.4,1", "data row 2, column 'f0'"),
    ("0.1,0.2,,0.4,0", "data row 2, column 'f2'"),
    ("0.1,0.2,0.3,1", "data row 2 has 4 fields, expected 5"),
])
def test_predict_rejects_unscorable_rows(toy_csv, tmp_path, capsys, bad_row, message):
    out = tmp_path / "run"
    run("fit", "--dataset", toy_csv, "--label-column", "y", "--k", "1",
        "--lambda", "1.0", "--out-dir", out)
    rows = tmp_path / "rows.csv"
    rows.write_text("f0,f1,f2,f3,y\n0.5,0.5,0.5,0.5,1\n" + bad_row + "\n0.2,0.2,0.2,0.2,0\n")
    capsys.readouterr()
    assert run("predict", "--model", out / "model.json", "--dataset", rows,
               "--label-column", "y", "--out-dir", tmp_path / "pred") == EXIT_DATA
    assert message in capsys.readouterr().err
    assert not (tmp_path / "pred/predictions.csv").exists()


def test_predictions_file_bytes_are_pinned(tmp_path):
    """Probabilities at both exact ends, the 0.5 tie, a subnormal and a
    small exponent are written as repr(float(p)), as the csv writer renders
    a Python float."""
    # logit = -800 + 1600 x: exp(800) overflows, 0 is the tie, -709.5 leaves
    # a subnormal and -11.5 a probability near 1e-05
    ShapleyModel(feature_names=["x"], k=1, bias=-800.0, indices=np.array([1600.0]),
                 normalization=np.array([[0.0, 1.0]])).save(tmp_path / "model.json")
    x = np.array([0.0, 1.0, 0.5, 90.5 / 1600, 788.5 / 1600])
    (tmp_path / "rows.csv").write_text("x\n" + "".join(f"{v!r}\n" for v in x.tolist()))
    assert run("predict", "--model", tmp_path / "model.json", "--dataset", tmp_path / "rows.csv",
               "--out-dir", tmp_path / "pred") == EXIT_OK
    proba = ShapleyModel.load(tmp_path / "model.json").predict_proba(x[:, None])
    assert proba[:3].tolist() == [0.0, 1.0, 0.5]
    assert 0.0 < proba[3] < np.finfo(float).tiny and "e-05" in repr(float(proba[4]))
    want = "row,probability,label_at_0.5\n" + "".join(
        f"{i},{float(p)!r},{int(p >= 0.5)}\n" for i, p in enumerate(proba))
    got = (tmp_path / "pred/predictions.csv").read_bytes()
    assert got == want.encode()
    assert got.splitlines()[1:4] == [b"0,0.0,0", b"1,1.0,1", b"2,0.5,1"]


def test_predictions_csv_is_what_the_csv_module_writes(tmp_path):
    """predict writes predictions.csv as one string; its bytes are those
    csv.writer gives the same (int, float, int) rows, exact 0.0 and 1.0
    probabilities included."""
    # logit = -1000 + 2000 x: exactly 0.0 at x = 0, 1.0 at x = 1, the tie at 0.5
    ShapleyModel(feature_names=["x"], k=1, bias=-1000.0, indices=np.array([2000.0]),
                 normalization=np.array([[0.0, 1.0]])).save(tmp_path / "model.json")
    x = [0.0, 1.0, 0.5, 0.49, 0.5001, 0.1234, 0.999, 0.2]
    (tmp_path / "rows.csv").write_text("x\n" + "".join(f"{v!r}\n" for v in x))
    assert run("predict", "--model", tmp_path / "model.json", "--dataset", tmp_path / "rows.csv",
               "--out-dir", tmp_path / "pred") == EXIT_OK
    proba = ShapleyModel.load(tmp_path / "model.json").predict_proba(np.array(x)[:, None]).tolist()
    assert proba[:3] == [0.0, 1.0, 0.5]
    rows = [(i, p, int(p >= 0.5)) for i, p in enumerate(proba)]
    # and the writer alone, on floats no model gives
    odd = [(0, -0.0, 0), (1, 5e-324, 0), (22, 1e16, 1), (333, 0.1 + 0.2, 0),
           (4444, 1.0 - 2.0 ** -53, 1), (10 ** 20, 1.5e-7, 0)]
    cli._write_predictions(tmp_path / "odd.csv", odd)
    for path, written in ((tmp_path / "pred/predictions.csv", rows), (tmp_path / "odd.csv", odd)):
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(["row", "probability", "label_at_0.5"])
        writer.writerows(written)
        assert path.read_bytes() == text.getvalue().encode()


# flags that changed nothing, that another flag overrode, or that gave a
# setting a second spelling; each must now be rejected rather than accepted
VALID_ARGV = {
    "fit": ["--dataset", "rows.csv", "--label-column", "y"],
    "predict": ["--model", "model.json", "--dataset", "rows.csv"],
    "bench": ["--dataset", "rows.csv", "--label-column", "y"],
    "interactions": ["--models", "model.json"],
    "synth": ["--generator", "random-noise"],
}
REMOVED_FLAGS = [
    ("fit", ["--jobs", "2"]),
    ("fit", ["--generator", "random-noise"]),
    ("fit", ["--gen-n", "5"]),
    ("fit", ["--gen-samples", "50"]),
    ("fit", ["--gen-pairs", "2"]),
    ("fit", ["--c", "2"]),
    ("predict", ["--positive-class", "case"]),
    ("predict", ["--drop-missing"]),
    ("predict", ["--generator", "random-noise"]),
    ("predict", ["--gen-n", "5"]),
    ("predict", ["--gen-samples", "50"]),
    ("predict", ["--gen-pairs", "2"]),
    ("predict", ["--undersample-ratio", "0.1"]),
    ("predict", ["--seed", "5"]),
    ("predict", ["--jobs", "9"]),
    ("bench", ["--lambda", "123"]),
    ("bench", ["--c", "2"]),
    ("bench", ["--penalty", "l1"]),
    ("bench", ["--generator", "random-noise"]),
    ("bench", ["--gen-n", "5"]),
    ("bench", ["--gen-samples", "50"]),
    ("bench", ["--gen-pairs", "2"]),
    ("bench", ["--sweep-k"]),
    ("bench", ["--k-range", "1..2"]),
    ("interactions", ["--seed", "1"]),
    ("interactions", ["--jobs", "2"]),
    ("synth", ["--jobs", "2"]),
    # settings the protocol fixes: bench perturbs at cv.SIGMAS and selects
    # lambda by accuracy, and pair support counts |index| > analysis.ZERO_TOL
    ("bench", ["--sigmas", "0.1,0.2"]),
    ("bench", ["--selection-metric", "f1"]),
    ("interactions", ["--zero-tol", "1e-12"]),
]


def refused_by_name(err, command, flag):
    """Whether a usage error of ``command`` names ``flag``: a bad value's
    error names its flag, and a flag REMOVED_FLAGS lists for the command is
    refused as unknown, whatever its value."""
    removed = {gone for name, (gone, *_) in REMOVED_FLAGS if name == command}
    return (f"unrecognized arguments: {flag}" if flag in removed else flag) in err


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS,
                         ids=[f"{c}{f[0]}" for c, f in REMOVED_FLAGS])
def test_removed_flags_are_usage_errors(tmp_path, capsys, command, flag):
    # the argv is complete without the flag, so the only error is the flag;
    # parsing fails before any file is read
    assert run(command, *VALID_ARGV[command], "--out-dir", tmp_path, *flag) == EXIT_USAGE
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--lambda", "7"], ["--lambda", "0"], ["--c", "2"]])
def test_fit_penalty_none_rejects_a_strength(toy_csv, tmp_path, capsys, flag):
    assert run("fit", "--dataset", toy_csv, "--label-column", "y", "--penalty", "none",
               *flag, "--out-dir", tmp_path / "out") == EXIT_USAGE
    assert flag[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# every subcommand's long options; a flag is added or removed only by
# changing this table
FLAG_SURFACE = {
    "fit": ["--class-weight", "--dataset", "--delimiter", "--drop-missing", "--k",
            "--label-column", "--lambda", "--out-dir", "--penalty", "--positive-class",
            "--seed", "--undersample-ratio"],
    "predict": ["--dataset", "--delimiter", "--label-column", "--model", "--out-dir"],
    "bench": ["--bootstrap-resamples", "--class-weight", "--dataset", "--delimiter",
              "--drop-missing", "--jobs", "--k", "--label-column", "--lambda-grid",
              "--noise-repeats", "--out-dir", "--penalties", "--positive-class", "--profile",
              "--seed", "--undersample-ratio"],
    "bounds": ["--gap-iterations", "--jobs", "--out-dir", "--seed", "--sens-repeats"],
    "interactions": ["--min-support", "--models", "--out-dir", "--top-k"],
    "synth": ["--gen-n", "--gen-pairs", "--gen-samples", "--generator", "--out-dir", "--seed"],
}


def test_flag_surface():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    surface = {name: sorted(opt for action in p._actions for opt in action.option_strings
                            if opt.startswith("--") and opt != "--help")
               for name, p in subparsers.choices.items()}
    assert surface == FLAG_SURFACE
    assert sum(map(len, surface.values())) == 48


LIBRARY_OPTION_SURFACE = {
    fit: ["data", "k", "config", "start"],
    prepare: ["dataset", "k"],
    at_order: ["problem", "k"],
    nested_cv: ["dataset", "k", "penalty", "lambda_grid", "class_weighting", "seed", "jobs"],
    k_sweep_benchmark: ["dataset", "k_range", "penalties", "lambda_grid", "class_weighting",
                        "noise_repeats", "bootstrap_resamples", "seed", "jobs"],
    noise_robustness: ["model", "x_test", "y_test", "repeats", "seed"],
    bootstrap_stability: ["dataset", "k", "penalty", "lam", "resamples", "seed",
                          "class_weighting", "jobs"],
    gap_experiment: ["iterations", "seed", "jobs"],
    sensitivity_to_label_flip: ["dataset", "k", "config", "repeats", "seed"],
    transposed_min_terms: ["x", "k"],
    default_lambda_grid: [],
}


def test_library_option_surface():
    """The parameters of the library's entry points, in order: adding or
    dropping an option is an edit here, as a flag is in FLAG_SURFACE."""
    surface = {func: list(inspect.signature(func).parameters) for func in LIBRARY_OPTION_SURFACE}
    assert surface == LIBRARY_OPTION_SURFACE


def test_protocol_constants():
    """The settings every fit and protocol run shares, one value each: the
    solver's tolerance and budget, the nested-CV folds, the noise levels of
    bench's robustness, the tolerance of pair support, the label-flip sizes
    bounds runs, which acceptance criterion 7 certifies, and the penalties
    and sizes of the one gap protocol, which criterion 8 certifies."""
    assert (train.TOL, train.MAX_ITERS) == (1e-8, 10_000)
    assert FitConfig().max_iters == train.MAX_ITERS
    assert (cv.OUTER_FOLDS, cv.INNER_FOLDS) == (5, 3)
    assert cv.SIGMAS == (0.1, 0.2, 0.3)
    assert analysis.ZERO_TOL == 1e-8
    assert analysis.GAP_PENALTIES == ("none", "l2")
    assert (cli.SENS_N, cli.SENS_SAMPLES, cli.SENS_K) == (10, 100, 2)
    assert cli.C_GRID == (0.01, 0.1, 0.5, 1.0, 1.5, 3.0)
    assert (analysis.GAP_N, analysis.GAP_SAMPLES, analysis.GAP_LAMBDA) == (8, 1000, 1.0)
    assert analysis.GAP_K_RANGE == tuple(range(1, 9))


RECORD_FIELDS = {
    FitConfig: ["penalty", "lam", "class_weighting"],
    FoldReport: ["fold", "selected_lam", "inner_scores", "metrics", "result", "test_rows",
                 "fit_s", "predict_s"],
    CVReport: ["dataset", "k", "penalty", "class_weighting", "seed", "lambda_grid", "folds"],
    SweepCell: ["cv", "robustness", "bootstrap", "bootstrap_lam"],
    BootstrapResult: ["accuracies", "requested"],
    ResourceProfile: ["train_time_s", "infer_time_s", "model_size_mb", "flops"],
    SweepReport: ["dataset", "k_values", "penalties", "cells"],
    GapCell: ["train_errors", "test_errors", "status_counts"],
    GapExperiment: ["d_eff", "cells"],
    LabelFlipStudy: ["shifts", "max_index_shifts", "risk_diffs", "row_norm", "stability_ceiling",
                     "flipped_rows"],
}


def test_record_fields():
    """The fields of the protocol records, in order: a field that copies
    another record's value, or one nothing reads, comes back only through
    an edit here."""
    fields = {record: [f.name for f in dataclasses.fields(record)] for record in RECORD_FIELDS}
    assert fields == RECORD_FIELDS


def test_readme_commands_parse():
    """Every ``shapreg ...`` command in the README's fenced blocks, with
    backslash continuations joined, parses: a removed or renamed flag cannot
    leave the docs stale."""
    commands = []
    for block in re.findall(r"```[a-z]*\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("shapreg "):
                commands.append(shlex.split(line, comments=True)[1:])
    assert {argv[0] for argv in commands} == set(FLAG_SURFACE)
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_names_only_flags_the_cli_has():
    """Every ``--flag`` token of the README, prose included, is a flag of
    some subcommand (--help too) or pip's --no-build-isolation: a removed
    flag cannot linger in the docs."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {opt for p in subparsers.choices.values() for action in p._actions
             for opt in action.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", (ROOT / "README.md").read_text()))
    assert named - flags - {"--no-build-isolation"} == set()


def test_missing_file_is_data_error(tmp_path):
    assert run("fit", "--dataset", tmp_path / "nope.csv", "--label-column", "y",
               "--out-dir", tmp_path) in (EXIT_DATA, EXIT_USAGE)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_outputs_and_determinism(toy_csv, tmp_path):
    args = ("bench", "--dataset", toy_csv, "--label-column", "y",
            "--k", "1,2", "--penalties", "none,l2",
            "--lambda-grid", "0.1,1.0", "--noise-repeats", "2",
            "--bootstrap-resamples", "4", "--seed", "5", "--jobs", "2")
    assert run(*args, "--out-dir", tmp_path / "b1") == EXIT_OK
    assert run(*args, "--out-dir", tmp_path / "b2") == EXIT_OK
    for name in ("bench_summary.csv", "bench_cells.csv",
                 "cv_report_l2_k1.json", "cv_report_none_k2.json"):
        assert (tmp_path / "b1" / name).read_bytes() == (tmp_path / "b2" / name).read_bytes()
    validate(tmp_path / "b1/cv_report_l2_k1.json", "cv_report.schema.json")
    # the grid is l2's; an unpenalized cell reports lambda 0 alone
    assert strict_json(tmp_path / "b1/cv_report_l2_k1.json")["lambda_grid"] == [0.1, 1.0]
    assert strict_json(tmp_path / "b1/cv_report_none_k2.json")["lambda_grid"] == [0.0]
    reports = sorted((tmp_path / "b1").glob("*.json"))
    assert len(reports) == 4  # none and l2, each at k = 1 and 2
    for path in reports:
        strict_json(path)
    header = (tmp_path / "b1/bench_summary.csv").read_text().splitlines()[0]
    assert header == ("Dataset,Penalty,Best K (Acc),Accuracy,Accuracy Std,"
                      "Best K (Robust),Robustness Accuracy,Robustness Std,"
                      "Best K (Stab),Bootstrap Stability (Std)")


def test_bench_summary_follows_from_its_cells(toy_csv, tmp_path, monkeypatch):
    """Each row of bench_summary.csv is computed from bench_cells.csv: per
    penalty, the k of the highest accuracy_mean and of the highest
    robustness_mean (ties to the smaller k), and of the smallest
    bootstrap_std among the cells that have one, each with that cell's
    values.  A cell's robustness columns are the mean and std of its
    per-fold robustness, one value per outer fold."""
    reports, sweep = [], cli.k_sweep_benchmark

    def recorded_sweep(*args, **kwargs):
        reports.append(sweep(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "k_sweep_benchmark", recorded_sweep)
    assert run("bench", "--dataset", toy_csv, "--label-column", "y", "--k", "1..3",
               "--penalties", "none,l2", "--lambda-grid", "0.1,1.0", "--noise-repeats", "2",
               "--bootstrap-resamples", "4", "--seed", "2", "--out-dir", tmp_path) == EXIT_OK
    with open(tmp_path / "bench_cells.csv", newline="") as fh:
        cells = list(csv.DictReader(fh))
    with open(tmp_path / "bench_summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))

    assert [r["Penalty"] for r in summary] == ["none", "l2"]
    for row in summary:
        mine = [c for c in cells if c["penalty"] == row["Penalty"]]
        assert [c["k"] for c in mine] == ["1", "2", "3"]
        acc = max(mine, key=lambda c: (float(c["accuracy_mean"]), -int(c["k"])))
        rob = max(mine, key=lambda c: (float(c["robustness_mean"]), -int(c["k"])))
        stab = min((c for c in mine if c["bootstrap_std"]),
                   key=lambda c: (float(c["bootstrap_std"]), int(c["k"])),
                   default={"k": "", "bootstrap_std": ""})
        assert row == {
            "Dataset": acc["dataset"], "Penalty": acc["penalty"],
            "Best K (Acc)": acc["k"], "Accuracy": acc["accuracy_mean"],
            "Accuracy Std": acc["accuracy_std"],
            "Best K (Robust)": rob["k"], "Robustness Accuracy": rob["robustness_mean"],
            "Robustness Std": rob["robustness_std"],
            "Best K (Stab)": stab["k"], "Bootstrap Stability (Std)": stab["bootstrap_std"],
        }

    (report,) = reports
    for c in cells:
        cell = report.cells[(c["penalty"], int(c["k"]))]
        assert len(cell.robustness) == len(cell.cv.folds) == 5
        assert float(c["robustness_mean"]) == float(np.mean(cell.robustness))
        assert float(c["robustness_std"]) == float(np.std(cell.robustness))


def test_bench_names_the_best_cell_in_any_penalty_order(toy_csv, tmp_path, capsys):
    """bench's stdout names the bench_summary.csv row of the highest
    accuracy, whichever penalty --penalties lists first: on toy.csv, l2 at
    0.8172 beats l1 at 0.8089."""
    printed = []
    for order in ("l1,l2", "l2,l1"):
        out = tmp_path / order
        assert run("bench", "--dataset", toy_csv, "--label-column", "y", "--k", "1",
                   "--penalties", order, "--lambda-grid", "0.01,1", "--noise-repeats", "1",
                   "--bootstrap-resamples", "1", "--out-dir", out) == EXIT_OK
        with open(out / "bench_summary.csv", newline="") as fh:
            best = max(csv.DictReader(fh), key=lambda row: float(row["Accuracy"]))
        printed.append(capsys.readouterr().out.split("best_acc=")[1].split(" -> ")[0])
        assert printed[-1] == (f"{float(best['Accuracy']):.4f} "
                               f"(k={best['Best K (Acc)']}, {best['Penalty']})")
    assert printed == ["0.8172 (k=1, l2)"] * 2


def test_undersample_ratio_reaches_fit_and_bench(toy_csv, tmp_path):
    """--undersample-ratio 1 drops 2 of the 61 positive rows of toy.csv
    (59 negatives): the reports name the undersampled set, the bench folds
    cover its 118 rows, and reruns are byte-identical."""
    data = ("--dataset", toy_csv, "--label-column", "y", "--undersample-ratio", "1",
            "--seed", "4")
    bench = ("bench", *data, "--k", "1", "--lambda-grid", "1", "--noise-repeats", "1",
             "--bootstrap-resamples", "2")
    for rerun in ("a", "b"):
        assert run("fit", *data, "--out-dir", tmp_path / f"fit_{rerun}") == EXIT_OK
        assert run(*bench, "--out-dir", tmp_path / f"bench_{rerun}") == EXIT_OK
    name = "toy.csv_undersampled"
    assert strict_json(tmp_path / "fit_a/fit_report.json")["dataset"] == name
    report = strict_json(tmp_path / "bench_a/cv_report_l2_k1.json")
    assert report["dataset"] == name
    assert sorted(row for fold in report["folds"] for row in fold["test_rows"]) == list(range(118))
    for name in ("fit_report.json", "model.json"):
        assert (tmp_path / "fit_a" / name).read_bytes() == (tmp_path / "fit_b" / name).read_bytes()
    for path in (tmp_path / "bench_a").iterdir():
        assert path.read_bytes() == (tmp_path / "bench_b" / path.name).read_bytes()


def test_reports_do_not_depend_on_the_path_typed(toy_csv, tmp_path, monkeypatch):
    """A dataset is named by its file name, not by the path given: the same
    CSV read by a relative and by an absolute path gives byte-identical
    reports, and none of them holds the working directory."""
    monkeypatch.chdir(tmp_path.parent)
    bench = ("bench", "--label-column", "y", "--k", "1", "--lambda-grid", "1",
             "--noise-repeats", "1", "--bootstrap-resamples", "2")
    for name, path in (("relative", Path(tmp_path.name) / toy_csv.name), ("absolute", toy_csv)):
        assert run(*bench, "--dataset", path, "--out-dir", tmp_path / name) == EXIT_OK
    names = sorted(p.name for p in (tmp_path / "absolute").iterdir())
    assert sorted(p.name for p in (tmp_path / "relative").iterdir()) == names
    for name in names:
        text = (tmp_path / "absolute" / name).read_text()
        assert (tmp_path / "relative" / name).read_text() == text
        assert str(tmp_path) not in text
    assert strict_json(tmp_path / "absolute/cv_report_l2_k1.json")["dataset"] == "toy.csv"


def test_bench_profile_fits_with_the_class_weighting(toy_csv, tmp_path, cv_fit_configs):
    """Every fit of ``bench --class-weight inverse-frequency --profile``,
    the profiled outer refits included, is class-weighted."""
    assert run("bench", "--dataset", toy_csv, "--label-column", "y", "--k", "1",
               "--penalties", "l2", "--lambda-grid", "1.0", "--noise-repeats", "1",
               "--bootstrap-resamples", "2", "--class-weight", "inverse-frequency",
               "--profile", "--out-dir", tmp_path / "b") == EXIT_OK
    assert (tmp_path / "b" / "resources.csv").exists()
    # 5 outer refits, 2 bootstrap fits
    assert [c.class_weighting for c in cv_fit_configs] == ["inverse_frequency"] * 7


def test_bench_profile_reads_the_fits_bench_makes(toy_csv, tmp_path, cv_fit_configs, monkeypatch):
    """``--profile`` adds no fit: ``resources.csv`` reports each cell's own
    outer refits, so its size and FLOPs columns are that cell's CV profile."""
    reports = []
    sweep = cli.k_sweep_benchmark

    def recorded(*args, **kwargs):
        reports.append(sweep(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "k_sweep_benchmark", recorded)
    bench = ["bench", "--dataset", toy_csv, "--label-column", "y", "--k", "1..2",
             "--penalties", "l1,l2", "--lambda-grid", "0.1,1", "--noise-repeats", "1",
             "--bootstrap-resamples", "2"]
    assert run(*bench, "--out-dir", tmp_path / "plain") == EXIT_OK
    plain = list(cv_fit_configs)
    cv_fit_configs.clear()
    assert run(*bench, "--profile", "--out-dir", tmp_path / "profiled") == EXIT_OK
    assert cv_fit_configs == plain
    assert not (tmp_path / "plain" / "resources.csv").exists()
    with open(tmp_path / "profiled" / "resources.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["Dataset", "Penalty", "k", "Training Time (s)", "Inference Time (s)",
                      "Model Size (MB)", "FLOPs"]
    cells = reports[-1].cells
    assert [(pen, int(k)) for _, pen, k, *_ in rows] == list(cells)
    for (_, pen, k, train_s, infer_s, size_mb, flops) in rows:
        prof = cells[(pen, int(k))].cv.resources()
        assert (float(size_mb), float(flops)) == (prof.model_size_mb, prof.flops)
        assert (float(train_s), float(infer_s)) == (prof.train_time_s, prof.infer_time_s)


def test_bench_invalid_penalty_is_usage_error(toy_csv, tmp_path):
    assert run("bench", "--dataset", toy_csv, "--label-column", "y",
               "--penalties", "ridge", "--out-dir", tmp_path) == EXIT_USAGE


@pytest.mark.parametrize("k_range", ["3..1", ",", "0", "0..2", "1..x", "2.5"])
def test_bench_empty_k_range_is_usage_error(toy_csv, tmp_path, capsys, monkeypatch, k_range):
    monkeypatch.setattr(cli, "load_csv", None)  # the spec is checked before the data are read
    assert run("bench", "--dataset", toy_csv, "--label-column", "y",
               "--k", k_range, "--out-dir", tmp_path / "b") == EXIT_USAGE
    assert "argument --k: expects" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("text, orders", [("3", [3]), ("1..3", [1, 2, 3]), ("4, 1,", [4, 1])])
def test_order_lists_parse_to_the_orders_they_name(text, orders):
    parser = cli.build_parser()
    assert parser.parse_args(["bench", "--dataset", "d.csv", "--label-column", "y",
                              "--k", text, "--out-dir", "o"]).k == orders


def test_bench_without_a_usable_bootstrap_resample_leaves_its_std_empty(tmp_path):
    """One resample of ten rows whose out-of-bag set is degenerate: no
    accuracy, so no std to write (and none to take of an empty array) and
    no order to call the most stable."""
    x = np.linspace(0, 1, 10).tolist()
    path = tmp_path / "tiny.csv"
    path.write_text("a,b,label\n" + "".join(f"{v!r},{v!r},{i % 2}\n" for i, v in enumerate(x)))
    assert run("bench", "--dataset", path, "--label-column", "label", "--k", "1",
               "--lambda-grid", "1", "--noise-repeats", "1", "--bootstrap-resamples", "1",
               "--seed", "39", "--out-dir", tmp_path / "b") == EXIT_OK
    cells = (tmp_path / "b/bench_cells.csv").read_text().splitlines()
    assert cells[1].split(",")[7:9] == ["", "0"]  # bootstrap_std, bootstrap_effective
    summary = (tmp_path / "b/bench_summary.csv").read_text().splitlines()
    assert summary[1].split(",")[-2:] == ["", ""]  # Best K (Stab), its std


@pytest.mark.parametrize("flags", [
    ["--lambda-grid", "nan,1"],
    ["--lambda-grid", "-1", "--penalties", "none,l2"],
    ["--lambda-grid", "0.1,0"],
    ["--sigmas", "0.1,inf"],
    ["--sigmas", "-0.1"],
    ["--lambda-grid", ""],
    ["--lambda-grid", ","],
    ["--sigmas", ""],
    ["--lambda-grid", "0.1,abc"],
    ["--lambda-grid", "0.1,1", "--penalties", "none"],  # no penalized cell selects lambda
])
def test_bench_checks_number_lists_before_any_work(toy_csv, tmp_path, capsys, monkeypatch,
                                                   flags):
    monkeypatch.setattr(cli, "load_csv", None)  # never reached
    monkeypatch.setattr(cli, "k_sweep_benchmark", None)
    assert run("bench", "--dataset", toy_csv, "--label-column", "y", "--k", "1", *flags,
               "--out-dir", tmp_path / "b") == EXIT_USAGE
    assert refused_by_name(capsys.readouterr().err, "bench", flags[0])
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("flags", [
    ["--k", "2,1,2"],
    ["--penalties", "l2,l1,l2"],
    ["--sigmas", "0.1,0.1,0.3"],
    ["--sigmas", "0,0.0"],
    ["--lambda-grid", "1.0,1,0.1"],
    ["--noise-repeats", "0"],
    ["--bootstrap-resamples", "0"],
    ["--noise-repeats", "-1"],
    ["--penalties", ""],
    ["--penalties", "l2,ridge"],
    ["--jobs", "0"],
    ["--seed", "-1"],
    ["--undersample-ratio", "0"],
    ["--delimiter", ""],
    ["--delimiter", ";;"],
    ["--delimiter", '"'],
    ["--delimiter", "\n"],
])
def test_bench_rejects_repeated_or_empty_work_before_any_work(toy_csv, tmp_path, capsys,
                                                              monkeypatch, flags):
    """A repeated order or penalty would run (and write) the same cell twice,
    a repeated lambda would be pooled with its twin; zero repeats would
    average an empty list into NaN columns.  The --sigmas cases are refused
    because bench perturbs at cv.SIGMAS, whatever the value."""
    monkeypatch.setattr(cli, "k_sweep_benchmark", None)  # never reached
    assert run("bench", "--dataset", toy_csv, "--label-column", "y", "--k", "1", *flags,
               "--out-dir", tmp_path / "b") == EXIT_USAGE
    assert refused_by_name(capsys.readouterr().err, "bench", flags[0])
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("command,k", [("fit", "7"), ("bench", "7"), ("fit", "3"),
                                       ("bench", "2,3")])
def test_orders_too_large_to_allocate_are_usage_errors(tmp_path, capsys, monkeypatch, command, k):
    """k = 7 on 40 features lists 23 million coalitions (2.8 GB); k = 3 on 60
    features needs a 10.4 GB Newton system.  Both fail before any work."""
    monkeypatch.setattr(cli, "fit", None)  # never reached
    monkeypatch.setattr(cli, "k_sweep_benchmark", None)
    n = 40 if k == "7" else 60
    path = tmp_path / "wide.csv"
    rows = [",".join(f"f{i}" for i in range(n)) + ",y"]
    rows += [",".join(["0.5"] * n) + f",{i % 2}" for i in range(8)]
    path.write_text("\n".join(rows) + "\n")
    assert run(command, "--dataset", path, "--label-column", "y", "--k", k,
               "--out-dir", tmp_path / "out") == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"--k {k[-1]}: order k={k[-1]} on n={n} features" in err
    assert re.search(r"\(D=[\d,]+ coalitions\).* needs [\d,]+ bytes", err)
    assert not (tmp_path / "out").exists()


def test_bench_requires_single_data_source(toy_csv, tmp_path):
    """bench reads only a CSV: --dataset is required and --generator is not
    one of its flags."""
    assert run("bench", "--dataset", toy_csv, "--label-column", "y",
               "--generator", "random-noise", "--out-dir", tmp_path) == EXIT_USAGE
    assert run("bench", "--out-dir", tmp_path) == EXIT_USAGE


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_outputs(tmp_path):
    """One bounds run at the protocol's sizes writes its two measurements:
    the label-flip curve, a row per C, and the gap table, a row per order."""
    out = tmp_path / "bounds"
    assert run("bounds", "--sens-repeats", "1", "--gap-iterations", "1", "--seed", "3",
               "--out-dir", out) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["gap_experiment.csv",
                                                     "sensitivity_curve.csv"]
    with open(out / "sensitivity_curve.csv", newline="") as fh:
        assert tuple(float(row["C"]) for row in csv.DictReader(fh)) == cli.C_GRID
    with open(out / "gap_experiment.csv", newline="") as fh:
        assert tuple(int(row["k"]) for row in csv.DictReader(fh)) == analysis.GAP_K_RANGE
    gap_header = (out / "gap_experiment.csv").read_text().splitlines()[0]
    assert gap_header == ("k,D_k,d_eff,gap_unreg,gap_unreg_std,gap_l2,gap_l2_std,"
                          "budget_fits_unreg,no_descent_fits_unreg,separable_fits_unreg,"
                          "budget_fits_l2,no_descent_fits_l2,separable_fits_l2")


# a bad value of a bounds flag, and every flag bounds no longer has (its
# sizes, C grid and gap lambda are the protocol's constants, and no plug-in
# curve takes B, L or a model file), whatever its value, is a usage error
# that names the flag
@pytest.mark.parametrize("flag", [
    ["--gap-k-range", "3..1"],
    ["--gap-k-range", "1,2,1"],
    ["--gap-k-range", "0"],
    ["--gap-k-range", "1..x"],
    ["--gap-lambda", "0"],
    ["--gap-lambda", "nan"],
    ["--b-norm", "-1"],
    ["--lipschitz", "-0.5"],
    ["--c-grid", "1,0"],
    ["--c-grid", "1,nan"],
    ["--b-norm", "2", "--model", "m.json"],
    ["--gap-iterations", "0"],
    ["--gap-samples", "81"],
    ["--gap-samples", "0"],
    ["--sens-repeats", "0"],
    ["--sens-k", "11"],
    ["--sens-k", "3", "--sens-n", "60"],
    ["--gap-k-range", "3", "--gap-n", "60"],
    ["--gap-lambda", "inf"],
    ["--b-norm", "inf"],
    ["--lipschitz", "inf"],
    ["--lipschitz", "nan"],
    ["--sens-samples", "0"],
    ["--sens-n", "0"],
    ["--gap-n", "0"],
    ["--jobs", "0"],
    ["--seed", "-1"],
    ["--c-grid", ""],
    ["--c-grid", "1,1"],
    ["--model", "m.json"],
])
def test_bounds_rejects_bad_arguments_before_any_work(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.setattr(cli, "sensitivity_to_label_flip", None)  # never reached
    out = tmp_path / "bounds"
    assert run("bounds", *flag, "--out-dir", out) == EXIT_USAGE
    assert flag[0] in capsys.readouterr().err
    assert not out.exists()


def test_bounds_bytes_do_not_depend_on_jobs(tmp_path):
    """The gap experiment's iterations fan out over the workers, each one
    task that climbs every order on one design; every report is still the
    same file for any --jobs."""
    args = ("bounds", "--sens-repeats", "1", "--gap-iterations", "2", "--seed", "7")
    for jobs in (1, 2):
        assert run(*args, "--jobs", jobs, "--out-dir", tmp_path / f"j{jobs}") == EXIT_OK
    names = sorted(p.name for p in (tmp_path / "j1").iterdir())
    assert names == ["gap_experiment.csv", "sensitivity_curve.csv"]
    assert sorted(p.name for p in (tmp_path / "j2").iterdir()) == names
    for name in names:
        assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j2" / name).read_bytes()


def test_bounds_leaves_no_worker_thread_running(tmp_path):
    before = threading.active_count()
    assert run("bounds", "--sens-repeats", "1", "--gap-iterations", "2", "--jobs", "2",
               "--out-dir", tmp_path / "bounds") == EXIT_OK
    assert threading.active_count() == before


def test_bounds_writes_nothing_when_a_later_step_fails(tmp_path, monkeypatch):
    """A gap experiment that fails after the label-flip studies exits 2
    before any report is written."""
    studies = []

    def study(*args, **kwargs):
        studies.append(sensitivity_to_label_flip(*args, **kwargs))
        return studies[-1]

    def failing_gap(**kwargs):
        raise ValueError("a gap half has one class only")

    monkeypatch.setattr(cli, "sensitivity_to_label_flip", study)
    monkeypatch.setattr(cli, "gap_experiment", failing_gap)
    out = tmp_path / "bounds"
    assert run("bounds", "--sens-repeats", "1", "--out-dir", out) == EXIT_DATA
    assert len(studies) == len(cli.C_GRID)
    assert not out.exists()


# ---------------------------------------------------------------------------
# interactions
# ---------------------------------------------------------------------------

def make_models(toy_csv, tmp_path, count=3):
    paths = []
    for i, lam in enumerate((0.1, 0.5, 2.0)[:count]):
        out = tmp_path / f"m{i}"
        run("fit", "--dataset", toy_csv, "--label-column", "y", "--k", "2",
            "--penalty", "l1", "--lambda", str(lam), "--out-dir", out)
        paths.append(out / "model.json")
    return paths


def test_interactions_outputs(toy_csv, tmp_path):
    models = make_models(toy_csv, tmp_path)
    out = tmp_path / "inter"
    code = run("interactions", "--models", *models, "--top-k", "3",
               "--min-support", "0.5", "--out-dir", out)
    assert code == EXIT_OK
    mean_lines = (out / "interactions_mean.csv").read_text().strip().splitlines()
    assert len(mean_lines) == 4  # header + 3 features
    assert (out / "interactions_support.csv").exists()
    effects = (out / "main_effects.csv").read_text().strip().splitlines()
    assert effects[0] == "feature,mean_index,std_index"
    assert len(effects) == 5


def test_interactions_identical_models_full_support(toy_csv, tmp_path):
    model = make_models(toy_csv, tmp_path, count=1)[0]
    out = tmp_path / "inter"
    run("interactions", "--models", model, model, model, model, model,
        "--min-support", "0.0", "--out-dir", out)
    support_rows = (out / "interactions_support.csv").read_text().strip().splitlines()[1:]
    values = [float(v) for row in support_rows for v in row.split(",")[1:]]
    assert set(values) <= {0.0, 1.0}


@pytest.mark.parametrize("flag", [["--top-k", "99"], ["--top-k", "0"],
                                  ["--min-support", "1.5"], ["--min-support", "-0.1"],
                                  ["--min-support", "nan"], ["--zero-tol", "nan"],
                                  ["--zero-tol", "-1"], ["--zero-tol", "inf"]])
def test_interactions_checks_flags_before_writing(toy_csv, tmp_path, capsys, flag):
    models = make_models(toy_csv, tmp_path, count=1)
    capsys.readouterr()
    assert run("interactions", "--models", *models, *flag,
               "--out-dir", tmp_path / "out") == EXIT_USAGE
    assert refused_by_name(capsys.readouterr().err, "interactions", flag[0])
    assert not (tmp_path / "out").exists()


def test_interactions_usage_errors(toy_csv, tmp_path):
    models = make_models(toy_csv, tmp_path, count=1)
    assert run("interactions", "--models", *models, "--top-k", "99",
               "--out-dir", tmp_path) == EXIT_USAGE
    out1 = tmp_path / "k1"
    run("fit", "--dataset", toy_csv, "--label-column", "y", "--k", "1",
        "--lambda", "1.0", "--out-dir", out1)
    assert run("interactions", "--models", out1 / "model.json",
               "--out-dir", tmp_path) == EXIT_USAGE


@pytest.mark.parametrize("field", ["k", "feature_names"])
def test_interactions_names_the_models_that_disagree(toy_csv, tmp_path, capsys, field):
    """Models whose indices cannot be aggregated are a data error before any
    report, naming both files and each field that differs, with its value
    in each."""
    first = make_models(toy_csv, tmp_path, count=1)[0]
    other = tmp_path / "other" / "model.json"
    if field == "k":
        run("fit", "--dataset", toy_csv, "--label-column", "y", "--k", "3",
            "--out-dir", other.parent)
        differences = "k: 2 vs 3"
    else:
        payload = json.loads(first.read_text())
        payload["feature_names"][0] = "g0"
        other.parent.mkdir()
        other.write_text(json.dumps(payload))
        differences = "feature_names: ['f0', 'f1', 'f2', 'f3'] vs ['g0', 'f1', 'f2', 'f3']"
    capsys.readouterr()
    assert run("interactions", "--models", first, other,
               "--out-dir", tmp_path / "out") == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: models {first} and {other} disagree on {differences}\n")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_pure_pairwise_defaults(tmp_path):
    out = tmp_path / "synth"
    assert run("synth", "--generator", "pure-pairwise", "--seed", "4",
               "--out-dir", out) == EXIT_OK
    lines = (out / "pure_pairwise.csv").read_text().strip().splitlines()
    assert len(lines) == 1001
    labels = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert sum(labels) == 500
    validate(out / "pure_pairwise_provenance.json", "provenance.schema.json")


def test_synth_random_noise_defaults(tmp_path):
    out = tmp_path / "synth"
    run("synth", "--generator", "random-noise", "--seed", "4", "--out-dir", out)
    lines = (out / "random_noise.csv").read_text().strip().splitlines()
    assert lines[0].count(",") == 10  # 10 features + label
    assert len(lines) == 101
    validate(out / "random_noise_provenance.json", "provenance.schema.json")


def test_synth_deterministic_bytes(tmp_path):
    run("synth", "--generator", "pure-pairwise", "--gen-n", "6",
        "--gen-samples", "50", "--gen-pairs", "2", "--seed", "9",
        "--out-dir", tmp_path / "s1")
    run("synth", "--generator", "pure-pairwise", "--gen-n", "6",
        "--gen-samples", "50", "--gen-pairs", "2", "--seed", "9",
        "--out-dir", tmp_path / "s2")
    assert (tmp_path / "s1/pure_pairwise.csv").read_bytes() == \
        (tmp_path / "s2/pure_pairwise.csv").read_bytes()


@pytest.mark.parametrize("flags, refused", [
    (["--gen-n", "1"], "pairs must be in [1, 0] for n=1"),
    (["--gen-n", "3"], "pairs must be in [1, 3] for n=3"),  # 5 pairs by default
    (["--gen-n", "4", "--gen-pairs", "7"], "pairs must be in [1, 6] for n=4"),
])
def test_synth_more_pairs_than_the_features_have_is_a_usage_error(tmp_path, capsys, flags,
                                                                  refused):
    assert run("synth", "--generator", "pure-pairwise", *flags,
               "--out-dir", tmp_path / "out") == EXIT_USAGE
    assert f"usage error: --gen-pairs with --gen-n: {refused}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gen_pairs_needs_pure_pairwise(tmp_path, capsys):
    assert run("synth", "--generator", "random-noise", "--gen-pairs", "3",
               "--out-dir", tmp_path / "out") == EXIT_USAGE
    assert "--gen-pairs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit", "bench"])
@pytest.mark.parametrize("flag", [["--gen-n", "7"], ["--gen-samples", "50"], ["--gen-pairs", "3"]])
def test_generator_sizes_rejected_with_dataset(toy_csv, tmp_path, capsys, command, flag):
    """The generator sizes belong to synth; fit and bench reject them before
    writing anything, even next to a valid --dataset."""
    assert run(command, "--dataset", toy_csv, "--label-column", "y", "--k", "1", *flag,
               "--out-dir", tmp_path / "out") == EXIT_USAGE
    assert flag[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_unknown_generator(tmp_path):
    assert run("synth", "--generator", "mystery", "--out-dir", tmp_path) == EXIT_USAGE


def run_every_command(tmp_path) -> dict:
    """Run every subcommand once on tiny inputs, bench with --profile, and
    return the CSV files they wrote, by name."""
    data = tmp_path / "data"
    assert run("synth", "--generator", "pure-pairwise", "--gen-n", "4", "--gen-samples", "80",
               "--gen-pairs", "2", "--out-dir", data) == EXIT_OK
    common = ["--dataset", data / "pure_pairwise.csv", "--label-column", "label"]
    for penalty in ("l1", "l2"):
        assert run("fit", *common, "--penalty", penalty, "--lambda", "0.1",
                   "--out-dir", tmp_path / penalty) == EXIT_OK
    assert run("predict", "--model", tmp_path / "l2/model.json", *common[:4],
               "--out-dir", tmp_path / "predict") == EXIT_OK
    assert run("bench", *common, "--k", "1..2", "--penalties", "l1,l2", "--lambda-grid", "0.1,1",
               "--noise-repeats", "1", "--bootstrap-resamples", "2", "--profile",
               "--out-dir", tmp_path / "bench") == EXIT_OK
    assert run("bounds", "--sens-repeats", "1", "--gap-iterations", "1",
               "--out-dir", tmp_path / "bounds") == EXIT_OK
    assert run("interactions", "--models", tmp_path / "l1/model.json", tmp_path / "l2/model.json",
               "--out-dir", tmp_path / "interactions") == EXIT_OK
    return {path.name: path for path in tmp_path.rglob("*.csv")}


def test_every_report_cell_is_a_python_str_int_or_float(tmp_path, monkeypatch):
    """The csv writer renders a Python float by its repr, but a numpy float
    as 'np.float64(...)' and a bool as 'True': every subcommand must hand
    _write_csv, and predict _write_predictions, rows of plain str, int and
    float values."""
    written = {}
    write_csv, write_predictions = cli._write_csv, cli._write_predictions

    def recorded(path, header, rows):
        rows = [list(row) for row in rows]
        written[Path(path).name] = rows
        write_csv(path, header, rows)

    def recorded_predictions(path, rows):
        rows = [list(row) for row in rows]
        written[Path(path).name] = rows
        write_predictions(path, rows)

    monkeypatch.setattr(cli, "_write_csv", recorded)
    monkeypatch.setattr(cli, "_write_predictions", recorded_predictions)
    run_every_command(tmp_path)
    assert sorted(written) == sorted([
        "pure_pairwise.csv", "predictions.csv", "bench_cells.csv", "bench_summary.csv",
        "resources.csv", "sensitivity_curve.csv", "gap_experiment.csv", "main_effects.csv",
        "interactions_mean.csv", "interactions_support.csv"])
    for name, rows in written.items():
        assert rows, name
        types = {type(cell) for row in rows for cell in row}
        assert types <= {str, int, float}, (name, types)


def test_csv_headers_match_the_documented_contract(tmp_path):
    """Each ``name.csv``: ``header`` entry of docs/schemas/csv_columns.md is
    the first row of the file the commands write under that name."""
    text = (SCHEMA_DIR / "csv_columns.md").read_text()
    documented = {name: [column.strip() for column in header.split(",")]
                  for name, header in re.findall(r"^- `(\w+\.csv)`: `([^`]+)`", text, re.M)}
    assert sorted(documented) == sorted([
        "predictions.csv", "bench_cells.csv", "bench_summary.csv", "resources.csv",
        "sensitivity_curve.csv", "gap_experiment.csv", "main_effects.csv"])
    files = run_every_command(tmp_path)
    for name, header in documented.items():
        with open(files[name], newline="") as fh:
            assert next(csv.reader(fh)) == header, name


# each JSON schema of docs/schemas/ and a file that run_every_command writes
# under it, by its path below tmp_path
SCHEMA_FILES = {
    "model.schema.json": "l2/model.json",
    "fit_report.schema.json": "l2/fit_report.json",
    "cv_report.schema.json": "bench/cv_report_l2_k1.json",
    "provenance.schema.json": "data/pure_pairwise_provenance.json",
}


def test_every_json_schema_validates_a_written_report(tmp_path):
    """Each docs/schemas/*.schema.json validates a file the commands write:
    a report that is no longer written takes its schema with it."""
    assert sorted(p.name for p in SCHEMA_DIR.glob("*.schema.json")) == sorted(SCHEMA_FILES)
    run_every_command(tmp_path)
    for schema, path in SCHEMA_FILES.items():
        validate(tmp_path / path, schema)
