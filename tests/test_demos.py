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


def test_planted_interactions_demo_runs(capsys):
    """Nested CV at k = 1, 2 without a penalty, then the consensus ranking of
    pair interactions; the strongest learned pair must be a planted one."""
    runpy.run_path(str(DEMOS / "02_planted_interactions.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "k=2 nested-CV accuracy (no penalty):" in out
    ranking = out.split("strongest learned interactions (planted marked *):\n")[1]
    assert ranking.splitlines()[0].endswith("*")


def test_label_flip_stability_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "03_label_flip_stability.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "Every per-index shift is bounded by the full-vector shift:" in out
    ratio = float(out.split("max over trials of (per-index / vector) =")[1].split()[0])
    assert ratio <= 1.0


def test_dimension_vs_gap_demo_runs(capsys):
    """The demo prints one gap table, a row per order; on its k=8 row the
    ridge gap is below the unregularized gap, the demo's own claim."""
    runpy.run_path(str(DEMOS / "04_dimension_vs_gap.py"), run_name="__main__")
    out = capsys.readouterr().out
    header, *rows = out.splitlines()
    assert header.split() == ["k", "D_k", "d_eff", "gap", "none", "gap", "l2"]
    assert [int(row.split()[0]) for row in rows] == list(range(1, 9))
    k, d_k, d_eff, gap_none, gap_l2 = rows[-1].split()
    assert (k, d_k) == ("8", "255")
    assert float(gap_l2) < float(gap_none)
