"""What the benchmark's hooks (perfbench/hooks.py) need from the package.

The hooks count fits and design cells by rebinding ``train.fit`` and
``basis.design_matrix`` wherever the package can reach them, and read the
design's shape from what ``design_matrix`` returns.  A refactor that moves,
renames or reshapes either one fails here rather than in a benchmark run.
"""

import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import shapreg
from shapreg.data import Dataset
from shapreg.games import num_coalitions
from shapreg.train import FitConfig

HOOKS = Path(__file__).resolve().parent.parent / "perfbench" / "hooks.py"


@pytest.fixture(scope="module")
def hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
