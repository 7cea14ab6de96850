"""What the benchmark (perfbench/) needs from the package.

The hooks count fits and design cells by rebinding ``train.fit`` and
``basis.design_matrix`` wherever the package can reach them, and read the
design's shape from what ``design_matrix`` returns.  The workloads call
``cli.main`` with fixed command lines.  A refactor that moves, renames or
reshapes one of these, or drops a flag a workload passes, fails here rather
than in a benchmark run.
"""

import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import shapreg
from shapreg import cli
from shapreg.data import Dataset
from shapreg.games import num_coalitions
from shapreg.train import FitConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def hooks():
    return load_perfbench("hooks")


def test_counts_see_one_fit_and_its_design(hooks):
    rng = np.random.default_rng(0)
    big_n, n, k = 40, 3, 2
    ds = Dataset(x=rng.uniform(size=(big_n, n)), y=np.arange(big_n) % 2,
                 feature_names=[f"f{i}" for i in range(n)])
    counts = hooks.Counts()
    patch = hooks.install_counts(counts)
    try:
        patch.modules["train"].fit(ds, k, FitConfig())
    finally:
        patch.restore()
    seen = counts.snapshot()
    assert (seen["fits"], seen["design_calls"]) == (1, 1)
    assert seen["design_cells"] == big_n * num_coalitions(n, k)


def test_layers_name_every_package_module(hooks):
    """The hooks import and trace the modules that ``LAYERS`` names: a
    module left out would be invisible to the tracer, and a removed one would
    fail every benchmark run."""
    modules = [info.name for info in pkgutil.iter_modules(shapreg.__path__)]
    assert sorted(hooks.LAYERS) == sorted(modules)


def test_tracer_reaches_every_binding(hooks):
    patch = hooks.Tracer(hooks.Counts()).install()
    try:
        assert patch.unpatched_bindings() == []
    finally:
        patch.restore()


class _Handed(Exception):
    """Raised in place of running a command, once its argv is recorded."""


class _Model:
    """Stands in for the fitted model a serving session predicts with."""

    def predict_proba(self, rows):
        return np.full(np.atleast_2d(rows).shape[0], 0.5)


def workload_argvs(monkeypatch, tmp_path) -> dict[str, list[str]]:
    """Every command line the workloads hand to ``cli.main``, by step and
    job count, recorded without running one: the recorder stops each step
    at its call."""
    workloads = load_perfbench("workloads")
    handed = []

    def record(argv):
        handed.append([str(arg) for arg in argv])
        raise _Handed

    monkeypatch.setattr(cli, "main", record)
    serving = {"seed": 0, "model": _Model(), "batch": np.zeros((0, 10)),
               "model_path": tmp_path / "model.json", "rows_csv": tmp_path / "rows.csv",
               "latencies_ns": [], "single_outputs": [], "batch_s": [], "batch_outputs": []}
    steps = {
        "cv_bench": lambda wl: wl.run_protocol({"csv": tmp_path / "planted.csv"}, tmp_path),
        "bounds_noise": lambda wl: wl.run_protocol({"seed": 0}, tmp_path),
        "predict_serving setup": lambda wl: wl.setup(0, tmp_path),
        "predict_serving": lambda wl: wl.run_protocol(serving, tmp_path),
    }
    argvs = {}
    for jobs in (1, 2):
        for step, call in steps.items():
            with pytest.raises(_Handed):
                call(workloads.make(step.split()[0], jobs))
            argvs[f"{step}, jobs {jobs}"] = handed.pop()
    return argvs


def test_every_workload_command_line_parses(monkeypatch, tmp_path):
    """Each command line a workload passes parses, flag for flag: a parser
    change that drops one (``bench --jobs``, say) fails here instead
    of every benchmark run."""
    argvs = workload_argvs(monkeypatch, tmp_path)
    assert {argv[0] for argv in argvs.values()} == {"bench", "bounds", "fit", "predict"}
    parser = cli.build_parser()
    for step, argv in argvs.items():
        try:
            parser.parse_args(argv)
        except cli.UsageError as exc:
            pytest.fail(f"{step}: {' '.join(argv)} does not parse: {exc}")
