"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured runtime.  Criteria needing the public benchmark CSVs skip
with a pointer to data/README.md when the files are absent.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import functools
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from shapreg.analysis import consensus_interactions, gap_experiment
from shapreg.basis import design_matrix
from shapreg.cv import k_sweep_benchmark, nested_cv, resource_profile
from shapreg.data import Dataset, gen_pure_pairwise, gen_random_noise, load_csv
from shapreg.games import (
    Basis,
    SetFunction,
    capacity_from_mobius,
    mobius_from_capacity,
    mobius_from_shapley,
    num_coalitions,
    shapley_from_mobius,
)
from shapreg.train import FitConfig, fit, loss_and_gradient, sensitivity_to_label_flip

from choquet_reference import capacity_lattice, choquet_sorted

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
JOBS = 4

DATASETS = {
    "banknote": dict(file="banknote.csv", label="class",
                     n=4, rows=1372, balance=(762, 610)),
    "pima": dict(file="pima.csv", label="Outcome",
                 n=8, rows=768, balance=(500, 268)),
    "transfusion": dict(file="transfusion.csv",
                        label="whether he/she donated blood in March 2007",
                        n=4, rows=748, balance=(570, 178)),
}


def load_benchmark(name):
    spec = DATASETS[name]
    path = DATA_DIR / spec["file"]
    if not path.exists():
        pytest.skip(
            f"{spec['file']} not present; download instructions in data/README.md"
        )
    ds = load_csv(path, label_column=spec["label"], name=name)
    assert ds.n_samples == spec["rows"], f"{name}: unexpected row count {ds.n_samples}"
    assert ds.n_features == spec["n"], f"{name}: unexpected feature count {ds.n_features}"
    neg, pos = ds.class_counts()
    assert {neg, pos} == set(spec["balance"]), f"{name}: unexpected class balance {neg}/{pos}"
    return ds


class timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def report(criterion, detail, elapsed, budget):
    print(f"ACCEPTANCE {criterion}: PASS - {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget:.0f}s budget"


# ---------------------------------------------------------------------------
# 1. transform round trips
# ---------------------------------------------------------------------------

def test_criterion_1_transform_round_trips():
    rng = np.random.default_rng(1001)
    with timer() as t:
        worst_cap = 0.0
        for trial in range(100):
            n = int(rng.integers(2, 13))
            mu = SetFunction(n=n, k=n, basis=Basis.CAPACITY,
                             values=rng.normal(size=num_coalitions(n, n)))
            back = capacity_from_mobius(mobius_from_capacity(mu))
            worst_cap = max(worst_cap, float(np.abs(back.values - mu.values).max()))
        worst_shap = 0.0
        for trial in range(100):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, min(3, n) + 1))
            m = SetFunction(n=n, k=k, basis=Basis.MOBIUS,
                            values=rng.normal(size=num_coalitions(n, k)))
            back = mobius_from_shapley(shapley_from_mobius(m))
            worst_shap = max(worst_shap, float(np.abs(back.values - m.values).max()))
    assert worst_cap < 1e-12, f"capacity round trip error {worst_cap:.2e}"
    assert worst_shap < 1e-12, f"interaction round trip error {worst_shap:.2e}"
    report(1, f"100+100 round trips, worst errors {worst_cap:.1e} / {worst_shap:.1e}",
           t.elapsed, 10)


# ---------------------------------------------------------------------------
# 2. basis equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_basis_equivalence():
    rng = np.random.default_rng(1002)
    with timer() as t:
        worst = 0.0
        for trial in range(1000):
            n = int(rng.integers(2, 11))
            k = int(rng.integers(1, min(3, n) + 1))
            vals = rng.normal(size=num_coalitions(n, k))
            index_fn = SetFunction(n=n, k=k, basis=Basis.SHAPLEY, values=vals)
            m = mobius_from_shapley(index_fn)
            x = rng.uniform(size=(1, n))
            shapley_path = float((design_matrix(x, k).values @ vals)[0])
            mobius_path = choquet_sorted(capacity_lattice(m), x[0])
            worst = max(worst, abs(shapley_path - mobius_path))
    assert worst < 1e-10, f"basis mismatch {worst:.2e}"
    report(2, f"1000 draws, worst |shapley - mobius| = {worst:.1e}", t.elapsed, 10)


# ---------------------------------------------------------------------------
# 3. gradient check
# ---------------------------------------------------------------------------

def test_criterion_3_gradient_check():
    rng = np.random.default_rng(1003)
    config = FitConfig(penalty="none")
    with timer() as t:
        worst = 0.0
        for trial in range(20):
            n = int(rng.integers(2, 7))
            big_n = int(rng.integers(10, 51))
            design = design_matrix(rng.uniform(size=(big_n, n)), 2)
            y = rng.integers(0, 2, size=big_n)
            theta = rng.normal(size=design.shape[1] + 1) * 0.6
            _, grad = loss_and_gradient((theta[0], theta[1:]), design, y, config)
            step = 1e-6
            for j in range(theta.size):
                e = np.zeros_like(theta)
                e[j] = step
                up, _ = loss_and_gradient((theta[0] + e[0], theta[1:] + e[1:]), design, y, config)
                dn, _ = loss_and_gradient((theta[0] - e[0], theta[1:] - e[1:]), design, y, config)
                fd = (up - dn) / (2 * step)
                rel = abs(grad[j] - fd) / max(1.0, abs(fd))
                worst = max(worst, rel)
    assert worst < 1e-5, f"gradient relative error {worst:.2e}"
    report(3, f"20 instances, worst relative error {worst:.1e}", t.elapsed, 30)


# ---------------------------------------------------------------------------
# 4. k=1 equivalence with direct logistic regression
# ---------------------------------------------------------------------------

def test_criterion_4_k1_equivalence():
    sklearn_linear = pytest.importorskip("sklearn.linear_model")
    rng = np.random.default_rng(1004)

    def signal(seed, n=5, big_n=250):
        r = np.random.default_rng(seed)
        x = r.uniform(size=(big_n, n)) * r.uniform(1, 20, size=n)
        w = r.normal(size=n)
        z = (x - x.mean(0)) / x.std(0) @ w
        y = (r.uniform(size=big_n) < 1 / (1 + np.exp(-z))).astype(int)
        return Dataset(x=x, y=y, feature_names=[f"f{i}" for i in range(n)])

    datasets = [gen_random_noise(5, 200, seed=41), signal(42), signal(43, n=3, big_n=150)]
    lam = 0.5
    with timer() as t:
        worst = 0.0
        for ds in datasets:
            result = fit(ds, 1, FitConfig(penalty="l2", lam=lam, tol=1e-10))
            x_norm = result.model.normalize(ds.x)
            ref = sklearn_linear.LogisticRegression(C=1.0 / (2 * lam), tol=1e-13,
                                                    max_iter=100_000)
            ref.fit(x_norm, ds.y)
            diff = np.abs(result.model.predict_proba(ds.x) - ref.predict_proba(x_norm)[:, 1]).max()
            worst = max(worst, float(diff))
    assert worst < 1e-6, f"probability mismatch {worst:.2e}"
    report(4, f"3 datasets, worst probability gap {worst:.1e}", t.elapsed, 30)


# ---------------------------------------------------------------------------
# 5. public-benchmark reproduction (L2 regime)
# ---------------------------------------------------------------------------

def test_criterion_5_banknote():
    ds = load_benchmark("banknote")
    with timer() as t:
        cv = nested_cv(ds, 1, "l2", seed=0, jobs=JOBS)
        acc = cv.mean_metric("accuracy")
    assert acc >= 0.99, f"banknote k=1 accuracy {acc:.4f} < 0.99"
    report("5a", f"banknote k=1 l2 accuracy {acc:.4f} (>= 0.99)", t.elapsed, 300)


def test_criterion_5_pima():
    ds = load_benchmark("pima")
    with timer() as t:
        cv = nested_cv(ds, 4, "l2", seed=0, jobs=JOBS)
        acc = cv.mean_metric("accuracy")
    assert abs(acc - 0.7667) <= 0.05, f"pima k=4 accuracy {acc:.4f} not within 0.7667±0.05"
    report("5b", f"pima k=4 l2 accuracy {acc:.4f} (target 0.7667±0.05)", t.elapsed, 300)


def test_criterion_5_transfusion():
    ds = load_benchmark("transfusion")
    with timer() as t:
        cv = nested_cv(ds, 2, "l2", seed=0, jobs=JOBS)
        acc = cv.mean_metric("accuracy")
    assert abs(acc - 0.7105) <= 0.05, f"transfusion k=2 accuracy {acc:.4f} not within 0.7105±0.05"
    report("5c", f"transfusion k=2 l2 accuracy {acc:.4f} (target 0.7105±0.05)", t.elapsed, 300)


# ---------------------------------------------------------------------------
# 6. planted pairwise signal
# ---------------------------------------------------------------------------

def test_criterion_6_pure_pairwise_signal():
    ds = gen_pure_pairwise(seed=0)  # defaults: n=15, N=1000, 5 pairs
    with timer() as t:
        sweep = k_sweep_benchmark(ds, [1, 2, 3], penalties=("none",),
                                  noise_repeats=2, bootstrap_resamples=4,
                                  seed=11, jobs=JOBS)
        accs = {k: sweep.cells[("none", k)].accuracy_mean for k in (1, 2, 3)}
        best_k = max(accs, key=lambda k: (accs[k], -k))
        gain = accs[2] - accs[1]

        cons = consensus_interactions(sweep.cells[("none", 2)].cv.models)
        n = ds.n_features
        pair_strengths = []
        for i in range(n):
            for j in range(i + 1, n):
                pair_strengths.append(((i, j), abs(cons.mean[i, j])))
        ranked = [p for p, _ in sorted(pair_strengths, key=lambda kv: -kv[1])]
        planted = [tuple(sorted((int(i), int(j)))) for i, j, _ in ds.provenance["pairs"]]
        quartile = len(ranked) // 4
        ranks = [ranked.index(p) + 1 for p in planted]
    assert best_k >= 2, f"best k = {best_k} under no penalty"
    assert gain >= 0.03, f"k=2 gain over k=1 is {gain:.4f} < 0.03"
    assert max(ranks) <= quartile, f"planted ranks {sorted(ranks)} exceed top quartile {quartile}"
    report(6, f"best k={best_k}, k2-k1 gain {gain:.3f}, planted ranks {sorted(ranks)} "
              f"of {len(ranked)} (quartile {quartile})", t.elapsed, 300)


# ---------------------------------------------------------------------------
# 7 & 9. label-flip stability protocol and the per-index ceiling
# ---------------------------------------------------------------------------

C_GRID = (0.01, 0.1, 0.5, 1.0, 1.5, 3.0)


@functools.lru_cache(maxsize=1)
def flip_studies():
    ds = gen_random_noise(10, 100, seed=123)
    t0 = time.perf_counter()
    studies = {
        c: sensitivity_to_label_flip(
            ds, 2, FitConfig.with_c(c, penalty="l2", seed=7), repeats=20
        )
        for c in C_GRID
    }
    return studies, time.perf_counter() - t0


def test_criterion_7_stability_curve():
    studies, elapsed = flip_studies()
    medians = [studies[c].median_shift for c in C_GRID]
    rho = float(spearmanr(C_GRID, medians).statistic)
    assert rho == 1.0, f"medians {medians} not strictly increasing in C (rho={rho})"
    for c in C_GRID:
        lam = 1.0 / c
        if lam >= 1.0:
            study = studies[c]
            assert study.risk_diffs.max() <= study.stability_ceiling, (
                f"C={c}: risk diff {study.risk_diffs.max():.3e} exceeds "
                f"ceiling {study.stability_ceiling:.3e}"
            )
    report(7, f"median shifts {[round(m, 4) for m in medians]} monotone (rho=1.0); "
              f"risk-diff ceiling holds for lambda >= 1", elapsed, 300)


def test_criterion_9_per_index_ceiling():
    studies, _ = flip_studies()
    with timer() as t:
        trials = 0
        for study in studies.values():
            assert np.all(study.max_index_shifts <= study.shifts), \
                "a per-index shift exceeded the full-vector shift"
            trials += study.shifts.size
    report(9, f"max per-index shift <= vector shift in all {trials} trials (exact)",
           t.elapsed, 60)


# ---------------------------------------------------------------------------
# 8. dimension and gap protocol
# ---------------------------------------------------------------------------

def test_criterion_8_gap_protocol():
    with timer() as t:
        exp = gap_experiment(n=8, big_n=1000, k_range=range(1, 9),
                             penalties=("none", "l2"), iterations=10,
                             seed=42, lam=1.0, jobs=JOBS)
    for k in range(2, 9):
        assert exp.d_eff[k] < exp.d_k[k], f"d_eff !< D_k at k={k}"
    unreg_1 = exp.cells[(1, "none")].mean_gap
    unreg_8 = exp.cells[(8, "none")].mean_gap
    ridge_8 = exp.cells[(8, "l2")].mean_gap
    assert unreg_8 > unreg_1, f"unregularized gap not growing: {unreg_8:.3f} <= {unreg_1:.3f}"
    assert ridge_8 < unreg_8, f"l2 gap {ridge_8:.3f} not below unregularized {unreg_8:.3f}"
    report(8, f"d_eff<D_k for all k>=2; gaps: unreg k1 {unreg_1:.3f} -> k8 {unreg_8:.3f}, "
              f"l2 k8 {ridge_8:.3f}", t.elapsed, 600)


# ---------------------------------------------------------------------------
# 10. resource profile
# ---------------------------------------------------------------------------

def test_criterion_10_resource_profile():
    pima_path = DATA_DIR / DATASETS["pima"]["file"]
    if pima_path.exists():
        ds = load_benchmark("pima")
        note = "pima"
    else:
        rng = np.random.default_rng(1010)
        x = rng.uniform(size=(768, 8))
        y = (rng.uniform(size=768) < 1 / (1 + np.exp(-3 * (x[:, 0] - 0.5)))).astype(int)
        ds = Dataset(x=x, y=y, feature_names=[f"f{i}" for i in range(8)], name="pima_shaped")
        note = "pima absent: shape-equivalent 768x8 synthetic"
    with timer() as t:
        prof_k1 = resource_profile(ds, 1, "l2", 1.0, folds=5)
        prof_k2 = resource_profile(ds, 2, "l2", 1.0, folds=5)
    assert prof_k1.flops == pytest.approx(2457.6), f"k=1 FLOPs {prof_k1.flops} != 2457.6"
    assert prof_k2.flops == pytest.approx(2 * 36 * 153.6)
    assert prof_k2.train_time_s + prof_k2.infer_time_s < 1.0, (
        f"k=2 per-fold train+infer {prof_k2.train_time_s + prof_k2.infer_time_s:.3f}s >= 1s"
    )
    report(10, f"{note}: k=1 FLOPs {prof_k1.flops}, k=2 train+infer "
               f"{prof_k2.train_time_s + prof_k2.infer_time_s:.3f}s/fold", t.elapsed, 120)


# ---------------------------------------------------------------------------
# 11. benchmark determinism through the CLI
# ---------------------------------------------------------------------------

def test_criterion_11_cmd_bench_determinism(tmp_path):
    from shapreg.cli import main

    csv_path = tmp_path / "toy.csv"
    ds = gen_pure_pairwise(n=6, big_n=200, pairs=2, seed=3)
    header = ",".join([*ds.feature_names, "label"])
    lines = [header] + [
        ",".join([repr(float(v)) for v in ds.x[i]] + [str(int(ds.y[i]))])
        for i in range(ds.n_samples)
    ]
    csv_path.write_text("\n".join(lines) + "\n")

    args = ["bench", "--dataset", str(csv_path), "--label-column", "label",
            "--sweep-k", "--k-range", "1,2", "--penalties", "none,l2",
            "--lambda-grid", "0.1,1.0,10.0", "--noise-repeats", "3",
            "--bootstrap-resamples", "8", "--seed", "17"]
    with timer() as t:
        assert main(args + ["--jobs", "1", "--out-dir", str(tmp_path / "r1")]) == 0
        assert main(args + ["--jobs", "4", "--out-dir", str(tmp_path / "r2")]) == 0
        files1 = sorted((tmp_path / "r1").glob("*"))
        files2 = sorted((tmp_path / "r2").glob("*"))
        assert [f.name for f in files1] == [f.name for f in files2]
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes(), f"{f1.name} differs between runs"
    report(11, f"{len(files1)} report files byte-identical across reruns and job counts",
           t.elapsed, 300)
