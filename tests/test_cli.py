import argparse
import dataclasses
import json
import re
import shlex
import threading
from pathlib import Path

import numpy as np
import pytest

from shapreg import cli
from shapreg.cli import (
    EXIT_DATA,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from shapreg.data import gen_pure_pairwise
from shapreg.model import ShapleyModel
from shapreg.train import FitConfig, fit

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
    assert report["converged"] is True
    assert "objective_trace" not in report


def test_fit_verbose_trace(toy_csv, tmp_path):
    out = tmp_path / "run"
    run("fit", "--dataset", toy_csv, "--label-column", "y", "--k", "1",
        "--lambda", "1.0", "--out-dir", out, "--verbose-trace")
    report = json.loads((out / "fit_report.json").read_text())
    assert "objective_trace" in report and len(report["objective_trace"]) >= 2
    validate(out / "fit_report.json", "fit_report.schema.json")


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
    library_fit = cli.fit
    monkeypatch.setattr(cli, "fit", lambda ds, k, config: library_fit(
        ds, k, dataclasses.replace(config, max_iters=1)))
    code = run("fit", "--dataset", toy_csv, "--label-column", "y", "--k", "2",
               "--lambda", "0.01", "--out-dir", tmp_path / "nc")
    assert code == EXIT_NO_CONVERGENCE
    assert "NOT converged in 1 iterations" in capsys.readouterr().out
    report = json.loads((tmp_path / "nc/fit_report.json").read_text())
    assert report["converged"] is False and report["iterations"] == 1


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
])
def test_fit_and_synth_check_flags_before_any_work(toy_csv, tmp_path, capsys, monkeypatch,
                                                    command, flag):
    monkeypatch.setattr(cli, "load_csv", None)  # never reached
    monkeypatch.setattr(cli, "_generate", None)
    argv = {"fit": ["--dataset", toy_csv, "--label-column", "y"],
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
    assert typed == 32


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


def test_predict_malformed_model(toy_csv, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run("predict", "--model", broken, "--dataset", toy_csv,
               "--label-column", "y", "--out-dir", tmp_path) == EXIT_DATA


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
]


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
            "--seed", "--undersample-ratio", "--verbose-trace"],
    "predict": ["--dataset", "--delimiter", "--label-column", "--model", "--out-dir"],
    "bench": ["--bootstrap-resamples", "--class-weight", "--dataset", "--delimiter",
              "--drop-missing", "--jobs", "--k", "--label-column", "--lambda-grid",
              "--noise-repeats", "--out-dir", "--penalties", "--positive-class", "--profile",
              "--seed", "--selection-metric", "--sigmas", "--undersample-ratio"],
    "bounds": ["--b-norm", "--c-grid", "--gap-iterations", "--gap-k-range", "--gap-lambda",
               "--gap-n", "--gap-samples", "--jobs", "--lipschitz", "--model", "--out-dir",
               "--seed", "--sens-k", "--sens-n", "--sens-repeats", "--sens-samples"],
    "interactions": ["--min-support", "--models", "--out-dir", "--top-k", "--zero-tol"],
    "synth": ["--gen-n", "--gen-pairs", "--gen-samples", "--generator", "--out-dir", "--seed"],
}


def test_flag_surface():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    surface = {name: sorted(opt for action in p._actions for opt in action.option_strings
                            if opt.startswith("--") and opt != "--help")
               for name, p in subparsers.choices.items()}
    assert surface == FLAG_SURFACE
    assert sum(map(len, surface.values())) == 63


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
    reports = sorted((tmp_path / "b1").glob("*.json"))
    assert len(reports) == 4  # none and l2, each at k = 1 and 2
    for path in reports:
        strict_json(path)
    header = (tmp_path / "b1/bench_summary.csv").read_text().splitlines()[0]
    assert header == ("Dataset,Penalty,Best K (Acc),Accuracy,Accuracy Std,"
                      "Best K (Robust),Robustness Accuracy,Robustness Std,"
                      "Best K (Stab),Bootstrap Stability (Std)")


def test_bench_profile_fits_with_the_class_weighting(toy_csv, tmp_path, cv_fit_configs):
    """Every fit of ``bench --class-weight inverse-frequency --profile``,
    the profiled ones included, is class-weighted."""
    assert run("bench", "--dataset", toy_csv, "--label-column", "y", "--k", "1",
               "--penalties", "l2", "--lambda-grid", "1.0", "--noise-repeats", "1",
               "--bootstrap-resamples", "2", "--class-weight", "inverse-frequency",
               "--profile", "--out-dir", tmp_path / "b") == EXIT_OK
    assert (tmp_path / "b" / "resources.csv").exists()
    # 5 outer refits, 2 bootstrap fits, 5 profiled folds
    assert [c.class_weighting for c in cv_fit_configs] == ["inverse_frequency"] * 12


def test_bench_invalid_penalty_is_usage_error(toy_csv, tmp_path):
    assert run("bench", "--dataset", toy_csv, "--label-column", "y",
               "--penalties", "ridge", "--out-dir", tmp_path) == EXIT_USAGE


@pytest.mark.parametrize("k_range", ["3..1", ","])
def test_bench_empty_k_range_is_usage_error(toy_csv, tmp_path, capsys, monkeypatch, k_range):
    monkeypatch.setattr(cli, "load_csv", None)  # the spec is checked before the data are read
    assert run("bench", "--dataset", toy_csv, "--label-column", "y",
               "--k", k_range, "--out-dir", tmp_path / "b") == EXIT_USAGE
    assert "--k " in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


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
])
def test_bench_checks_number_lists_before_any_work(toy_csv, tmp_path, capsys, monkeypatch,
                                                   flags):
    monkeypatch.setattr(cli, "k_sweep_benchmark", None)  # never reached
    assert run("bench", "--dataset", toy_csv, "--label-column", "y", "--k", "1", *flags,
               "--out-dir", tmp_path / "b") == EXIT_USAGE
    assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("flags", [
    ["--k", "2,1,2"],
    ["--penalties", "l2,l1,l2"],
    ["--noise-repeats", "0"],
    ["--bootstrap-resamples", "0"],
    ["--noise-repeats", "-1"],
    ["--penalties", ""],
    ["--penalties", "l2,ridge"],
    ["--jobs", "0"],
    ["--seed", "-1"],
    ["--undersample-ratio", "0"],
])
def test_bench_rejects_repeated_or_empty_work_before_any_work(toy_csv, tmp_path, capsys,
                                                              monkeypatch, flags):
    """A repeated order or penalty would run (and write) the same cell twice;
    zero repeats would average an empty list into NaN columns."""
    monkeypatch.setattr(cli, "k_sweep_benchmark", None)  # never reached
    assert run("bench", "--dataset", toy_csv, "--label-column", "y", "--k", "1", *flags,
               "--out-dir", tmp_path / "b") == EXIT_USAGE
    assert flags[0] in capsys.readouterr().err
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
    out = tmp_path / "bounds"
    code = run("bounds", "--sens-samples", "40", "--sens-repeats", "2",
               "--c-grid", "0.1,1.0", "--gap-n", "4", "--gap-samples", "80",
               "--gap-k-range", "1..2", "--gap-iterations", "1",
               "--seed", "3", "--out-dir", out)
    assert code == EXIT_OK
    for name in ("sensitivity_curve.csv", "gap_experiment.csv", "bound_curves.csv"):
        text = (out / name).read_text()
        assert len(text.strip().splitlines()) >= 2
    validate(out / "bound_report.json", "bound_report.schema.json")
    assert [p.name for p in out.glob("*.json")] == ["bound_report.json"]
    gap_header = (out / "gap_experiment.csv").read_text().splitlines()[0]
    assert gap_header == "k,D_k,d_eff,gap_unreg,gap_unreg_std,gap_l2,gap_l2_std"


@pytest.mark.parametrize("flag", [
    ["--gap-k-range", "3..1"],
    ["--gap-k-range", "1,2,1"],
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
])
def test_bounds_rejects_bad_arguments_before_any_work(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.setattr(cli, "sensitivity_to_label_flip", None)  # never reached
    out = tmp_path / "bounds"
    assert run("bounds", "--sens-samples", "40", "--sens-repeats", "2", "--c-grid", "1.0",
               "--gap-n", "4", "--gap-samples", "80", "--gap-k-range", "1..2",
               "--gap-iterations", "1", *flag, "--out-dir", out) == EXIT_USAGE
    assert flag[0] in capsys.readouterr().err
    assert not out.exists()


def test_bounds_bytes_do_not_depend_on_jobs(tmp_path):
    """The gap cells fan out over the workers, largest design first; every
    report is still the same file for any --jobs."""
    args = ("bounds", "--gap-n", "4", "--gap-samples", "60", "--gap-k-range", "1..4",
            "--gap-iterations", "3", "--sens-repeats", "3", "--seed", "7")
    for jobs in (1, 3):
        assert run(*args, "--jobs", jobs, "--out-dir", tmp_path / f"j{jobs}") == EXIT_OK
    names = sorted(p.name for p in (tmp_path / "j1").iterdir())
    assert names == ["bound_curves.csv", "bound_report.json", "gap_experiment.csv",
                     "sensitivity_curve.csv"]
    assert sorted(p.name for p in (tmp_path / "j3").iterdir()) == names
    for name in names:
        assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j3" / name).read_bytes()


def test_bounds_leaves_no_worker_thread_running(tmp_path):
    before = threading.active_count()
    assert run("bounds", "--sens-samples", "40", "--sens-repeats", "2", "--c-grid", "1.0",
               "--gap-n", "4", "--gap-samples", "60", "--gap-k-range", "1..4",
               "--gap-iterations", "2", "--jobs", "2", "--out-dir", tmp_path / "bounds") == EXIT_OK
    assert threading.active_count() == before


@pytest.mark.parametrize("flag", [["--model", "missing.json"], ["--gap-samples", "6"]])
def test_bounds_writes_nothing_when_a_later_step_fails(tmp_path, flag):
    """An unreadable --model (read up front) and gap halves of 3 rows with
    too few of one class to fit (after the label-flip studies) both fail
    before any report is written."""
    out = tmp_path / "bounds"
    if flag[0] == "--model":
        flag = ["--model", tmp_path / flag[1]]
    assert run("bounds", "--sens-samples", "40", "--sens-repeats", "2", "--c-grid", "1.0",
               "--gap-n", "4", "--gap-samples", "80", "--gap-k-range", "1..2",
               "--gap-iterations", "1", *flag, "--out-dir", out) == EXIT_DATA
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
        "--min-support", "0.0", "--zero-tol", "1e-12", "--out-dir", out)
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
    assert flag[0] in capsys.readouterr().err
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


def test_every_report_cell_is_a_python_str_int_or_float(tmp_path, monkeypatch):
    """The csv writer renders a Python float by its repr, but a numpy float
    as 'np.float64(...)' and a bool as 'True': every subcommand must hand
    _write_csv rows of plain str, int and float values."""
    written = {}
    write_csv = cli._write_csv

    def recorded(path, header, rows):
        rows = [list(row) for row in rows]
        written[Path(path).name] = rows
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", recorded)
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
    assert run("bounds", "--sens-n", "3", "--sens-samples", "40", "--sens-repeats", "2",
               "--c-grid", "1", "--gap-n", "3", "--gap-samples", "40", "--gap-k-range", "1..3",
               "--gap-iterations", "1", "--out-dir", tmp_path / "bounds") == EXIT_OK
    assert run("interactions", "--models", tmp_path / "l1/model.json", tmp_path / "l2/model.json",
               "--out-dir", tmp_path / "interactions") == EXIT_OK
    assert sorted(written) == sorted([
        "pure_pairwise.csv", "predictions.csv", "bench_cells.csv", "bench_summary.csv",
        "resources.csv", "sensitivity_curve.csv", "gap_experiment.csv", "bound_curves.csv",
        "main_effects.csv", "interactions_mean.csv", "interactions_support.csv"])
    for name, rows in written.items():
        assert rows, name
        types = {type(cell) for row in rows for cell in row}
        assert types <= {str, int, float}, (name, types)

