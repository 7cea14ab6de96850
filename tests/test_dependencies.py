"""numpy is the package's only runtime dependency: every code path runs
without scipy, the imports in src/ match pyproject.toml, and the bench and
bounds protocols never load numpy.ma.  Each piece of knowledge has one
owning module, and the README's Layout block lists every module."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shapreg

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(shapreg.__file__).resolve().parent.parent

# every subcommand on tiny settings, plus the basis transforms; prints the
# scipy modules loaded at the end
EVERY_PATH = r"""
import json
import sys
from pathlib import Path

import numpy as np

from shapreg import cli
from shapreg.basis import design_matrix, phi
from shapreg.games import (Basis, SetFunction, capacity_from_mobius, mobius_from_capacity,
                           mobius_from_shapley, shapley_from_mobius)

out = Path(sys.argv[1])


def run(*argv):
    code = cli.main([str(a) for a in argv])
    assert code == cli.EXIT_OK, (argv, code)


run("synth", "--generator", "pure-pairwise", "--gen-n", "4", "--gen-samples", "80",
    "--gen-pairs", "2", "--seed", "0", "--out-dir", out / "data")
rows = out / "data" / "pure_pairwise.csv"
common = ["--dataset", rows, "--label-column", "label"]
run("fit", *common, "--k", "2", "--penalty", "l2", "--lambda", "1", "--out-dir", out / "l2")
run("fit", *common, "--k", "2", "--penalty", "l1", "--lambda", "0.1", "--out-dir", out / "l1")
run("predict", "--model", out / "l2" / "model.json", *common, "--out-dir", out / "predict")
run("bench", *common, "--k", "1,2", "--penalties", "l1,l2", "--lambda-grid", "0.1,1",
    "--noise-repeats", "1", "--bootstrap-resamples", "2", "--profile", "--out-dir", out / "bench")
run("bounds", "--sens-repeats", "1", "--gap-iterations", "1", "--jobs", "2", "--seed", "0",
    "--out-dir", out / "bounds")
run("interactions", "--models", out / "l2" / "model.json", out / "l1" / "model.json",
    "--out-dir", out / "interactions")

m = SetFunction(n=3, k=3, basis=Basis.MOBIUS, values=np.arange(1.0, 8.0))
assert np.allclose(mobius_from_capacity(capacity_from_mobius(m)).values, m.values)
assert np.allclose(mobius_from_shapley(shapley_from_mobius(m)).values, m.values)
design_matrix(np.full((2, 3), 0.5), 3)
phi([0, 1], [0.2, 0.7])
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_every_code_path_runs_without_scipy(tmp_path):
    done = subprocess.run([sys.executable, "-c", EVERY_PATH, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_the_declared_dependencies():
    """A third-party import in src/shapreg must be a [project] dependency and
    every dependency must be imported, so scipy cannot come back silently."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in project["dependencies"]}
    imported = set().union(*map(_top_level_imports, sorted((ROOT / "src" / "shapreg").glob("*.py"))))
    assert imported - set(sys.stdlib_module_names) - {"shapreg"} == declared


# a tiny run of every subcommand; prints whether numpy.ma was loaded
PROTOCOLS = r"""
import sys
from pathlib import Path

from shapreg import cli

out = Path(sys.argv[1])


def run(*argv):
    code = cli.main([str(a) for a in argv])
    assert code == cli.EXIT_OK, (argv, code)


run("synth", "--generator", "pure-pairwise", "--gen-n", "4", "--gen-samples", "80",
    "--gen-pairs", "2", "--seed", "0", "--out-dir", out / "data")
data = ["--dataset", out / "data" / "pure_pairwise.csv", "--label-column", "label"]
for penalty in ("l1", "l2"):
    run("fit", *data, "--k", "2", "--penalty", penalty, "--lambda", "0.1",
        "--out-dir", out / penalty)
run("predict", "--model", out / "l2" / "model.json", *data, "--out-dir", out / "predict")
run("interactions", "--models", out / "l1" / "model.json", out / "l2" / "model.json",
    "--out-dir", out / "interactions")
run("bench", *data, "--k", "1,2", "--penalties", "l1,l2", "--lambda-grid", "0.01,0.1,1",
    "--noise-repeats", "1", "--bootstrap-resamples", "3", "--out-dir", out / "bench")
run("bounds", "--sens-repeats", "1", "--gap-iterations", "1", "--seed", "0",
    "--out-dir", out / "bounds")
print("numpy.ma" in sys.modules)
"""


def test_bench_and_bounds_never_load_numpy_ma(tmp_path):
    """np.unique, np.setdiff1d and np.median load numpy.ma on their first
    call (numpy 2.x), at a cost of ~1.5 MB and ~15 ms per process; the
    protocols use sort- and bincount-based equivalents instead.  synth, fit,
    predict and interactions, a serving process's commands, load it no
    more than bench and bounds."""
    check = "import sys, numpy; print('numpy.ma' in sys.modules)"
    if subprocess.run([sys.executable, "-c", check], capture_output=True,
                      text=True).stdout.strip() == "True":
        pytest.skip("import numpy alone loads numpy.ma")
    done = subprocess.run([sys.executable, "-c", PROTOCOLS, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def _names(path: Path) -> set[str]:
    """Every identifier, attribute and imported name a module's code uses."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
            names.add(node.name)
    return names


def test_a_design_is_an_array_past_design_matrix():
    """The solver, the capacity measures and every protocol handle a design
    as a plain ndarray: ``DesignMatrix`` is only what ``design_matrix``
    returns (basis.py), an input ``loss_and_gradient`` accepts (train.py)
    and a package export."""
    naming = sorted(path.name for path in (ROOT / "src" / "shapreg").glob("*.py")
                    if "DesignMatrix" in _names(path))
    assert naming == ["__init__.py", "basis.py", "train.py"]


def _defined(path: Path) -> set[str]:
    """The functions and classes a module defines at its top level."""
    return {node.name for node in ast.parse(path.read_text(), filename=str(path)).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_train_is_the_solver():
    """train.py defines the solver and its inputs, nothing else public.  The
    label-flip study and its 2 L^2 / (lam N) ceiling are defined beside the
    gap experiment (analysis.py), min-max normalization is learned where it is
    applied (model.py), and the single-caller helpers the study used are
    gone: no module defines the largest row norm or per-sample losses."""
    sources = sorted((ROOT / "src" / "shapreg").glob("*.py"))
    owners = {name: [path.name for path in sources if name in _defined(path)]
              for name in ("stability_bound", "LabelFlipStudy", "sensitivity_to_label_flip",
                           "learn_normalization", "max_row_norm", "per_sample_losses")}
    assert owners == {"stability_bound": ["analysis.py"], "LabelFlipStudy": ["analysis.py"],
                      "sensitivity_to_label_flip": ["analysis.py"],
                      "learn_normalization": ["model.py"],
                      "max_row_norm": [], "per_sample_losses": []}
    public = sorted(name for name in _defined(ROOT / "src" / "shapreg" / "train.py")
                    if not name.startswith("_"))
    assert public == ["FitConfig", "FitResult", "Problem", "at_order", "check_fit_size", "fit",
                      "loss_and_gradient", "prepare", "sample_weights"]


def test_the_gap_protocol_sizes_live_in_analysis():
    """The gap experiment's sizes are analysis constants, defined nowhere
    else; no module defines the plug-in bound curves that bounded none of its
    fits, and analysis.py imports nothing from cv."""
    sources = sorted((ROOT / "src" / "shapreg").glob("*.py"))
    assigning = [path.name for path in sources
                 if re.search(r"^GAP_\w+(, GAP_\w+)* =", path.read_text(), re.M)]
    assert assigning == ["analysis.py"]
    for name in ("bound_curves", "bound_report", "RADEMACHER_B"):
        assert [path.name for path in sources if name in _names(path)] == [], name
    tree = ast.parse((ROOT / "src" / "shapreg" / "analysis.py").read_text())
    assert "cv" not in {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}


def test_readme_layout_lists_every_module():
    """The README's Layout block names each module of src/shapreg/ but
    __init__.py, once: a module added, renamed or removed updates it."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Layout\n\n```\n(.*?)```", readme, re.S | re.M).group(1)
    listed = sorted(re.findall(r"^  (\w+\.py) ", block, re.M))
    modules = sorted(path.name for path in (ROOT / "src" / "shapreg").glob("*.py")
                     if path.name != "__init__.py")
    assert listed == modules
