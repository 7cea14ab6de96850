import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_set_function_bases_demo_runs(capsys):
    """The bases demo calls every public transform and prints its round-trip
    errors; it must run to the end."""
    runpy.run_path(str(DEMOS / "01_set_function_bases.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "Moebius -> Shapley -> Moebius, max error" in out
    assert "efficiency:" in out
