"""The benchmark's workloads: inputs, set-up, the protocol call and its checks.

Each workload runs one of the user-facing protocols in-process through
``shapreg.cli.main``.  All inputs derive from the ``--seed`` argument (see
``CvBench`` for how).
"""

from __future__ import annotations

import csv
import time
from pathlib import Path

import numpy as np

from shapreg import cli
from shapreg.games import choquet_mobius, mobius_from_shapley
from shapreg.model import ShapleyModel

# the lambda grid 1e-3, 10^-1.5, 1, 10^1.5, 1e3
CV_LAMBDAS = [10.0 ** e for e in (-3.0, -1.5, 0.0, 1.5, 3.0)]


def pure_pairwise(n: int, big_n: int, pairs: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Planted pairwise data: log-odds sum_p w_p (x_i x_j - 1/4) over random
    pairs, |w_p| in [1, 2], labels split at the median log-odds.  The same
    draws as ``shapreg.data.gen_pure_pairwise``, kept here so that a change
    to the package cannot change the benchmark's inputs."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(big_n, n))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = rng.choice(len(all_pairs), size=pairs, replace=False)
    signs = rng.choice([-1.0, 1.0], size=pairs)
    weights = signs * rng.uniform(1.0, 2.0, size=pairs)
    logits = np.zeros(big_n)
    for p, w in zip(chosen, weights):
        i, j = all_pairs[p]
        logits += w * (x[:, i] * x[:, j] - 0.25)
    y = np.zeros(big_n, dtype=int)
    y[np.argsort(logits, kind="stable")[big_n - big_n // 2:]] = 1
    return x, y


def write_csv(path: Path, x: np.ndarray, y: np.ndarray | None = None) -> None:
    header = [f"x{i}" for i in range(x.shape[1])] + (["label"] if y is not None else [])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(x.shape[0]):
            row = [repr(float(v)) for v in x[i]]
            writer.writerow(row + [int(y[i])] if y is not None else row)


def read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check(name: str, ok: bool, detail: str = "") -> tuple[str, bool, str]:
    return name, bool(ok), detail


class Workload:
    name = ""
    setup_reps = 5
    # fits one protocol call makes; None when it makes none
    closed_form_fits: int | None = None
    # the protocol runs work on a thread pool
    starts_pool = False

    def setup(self, seed: int, work: Path) -> dict:
        raise NotImplementedError

    def run_protocol(self, state: dict, out_dir: Path) -> int:
        """One protocol call; returns its exit code."""
        raise NotImplementedError

    def check_protocol(self, state: dict, out_dir: Path) -> list:
        """Checks of one call's outputs, as ``check`` tuples."""
        return []

    def final_checks(self, state: dict) -> list:
        """Checks made once, after the timed part, with tracing removed."""
        return []

    def diagnostics(self, state: dict) -> dict:
        """Figures printed and recorded with the run but not gated."""
        return {}


class CvBench(Workload):
    """``shapreg bench``: nested CV, noise robustness and bootstrap over l1/l2.

    Every seed gets the same planted problem: the seed permutes the CSV's
    feature columns, while the rows and the protocol's own ``--seed`` (folds,
    perturbations, resamples) stay fixed.  How close to separable the
    low-lambda fits are depends on the rows and the folds; letting the seed
    draw them moved the protocol's solver iterations by +-11% between seeds
    (309k to 387k), on top of the machine's own run-to-run noise."""

    name = "cv_bench"
    DATA_SEED = 0
    PROTOCOL_SEED = 0
    closed_form_fits = 2 * (5 * (len(CV_LAMBDAS) * 3 + 1) + 10)  # 180

    def setup(self, seed, work):
        x, y = pure_pairwise(8, 300, 4, self.DATA_SEED)
        x = x[:, np.random.default_rng([seed, 5]).permutation(8)]
        write_csv(work / "planted.csv", x, y)
        return {"csv": work / "planted.csv"}

    def run_protocol(self, state, out_dir):
        return cli.main([
            "bench", "--dataset", str(state["csv"]), "--label-column", "label",
            "--penalties", "l1,l2", "--k", "2",
            "--lambda-grid", ",".join(repr(v) for v in CV_LAMBDAS),
            "--noise-repeats", "5", "--bootstrap-resamples", "10",
            "--jobs", "1", "--seed", str(self.PROTOCOL_SEED), "--out-dir", str(out_dir)])

    def check_protocol(self, state, out_dir):
        rows = read_csv_rows(out_dir / "bench_cells.csv")
        accs = [float(r["accuracy_mean"]) for r in rows]
        return [check("cv_bench.cells", len(rows) == 2, f"{len(rows)} cells"),
                check("cv_bench.accuracy>=0.85", accs and min(accs) >= 0.85, f"accuracy_mean {accs}")]


class BoundsNoise(Workload):
    """``shapreg bounds``: label-flip curve and pure-noise gap experiment."""

    name = "bounds_noise"
    C_VALUES = 6
    SENS_REPEATS = 10
    GAP_N = 8
    GAP_ITERATIONS = 2
    closed_form_fits = C_VALUES * (SENS_REPEATS + 1) + GAP_ITERATIONS * GAP_N * 2  # 98

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.starts_pool = jobs > 1

    def setup(self, seed, work):
        return {"seed": seed}

    def run_protocol(self, state, out_dir):
        return cli.main([
            "bounds", "--sens-repeats", str(self.SENS_REPEATS),
            "--gap-iterations", str(self.GAP_ITERATIONS), "--jobs", str(self.jobs),
            "--seed", str(state["seed"]), "--out-dir", str(out_dir)])

    def check_protocol(self, state, out_dir):
        sens = read_csv_rows(out_dir / "sensitivity_curve.csv")
        over = [r["C"] for r in sens if float(r["max_risk_diff"]) > float(r["stability_ceiling"])]
        gap = {int(r["k"]): r for r in read_csv_rows(out_dir / "gap_experiment.csv")}
        top = gap.get(self.GAP_N)
        return [
            check("bounds.curve_rows", len(sens) == self.C_VALUES, f"{len(sens)} rows"),
            check("bounds.risk_diff<=ceiling", not over, f"C values over the ceiling: {over}"),
            check("bounds.gap_l2<=gap_unreg@k=n",
                  top is not None and float(top["gap_l2"]) <= float(top["gap_unreg"]),
                  f"k={self.GAP_N} row {top}"),
        ]


class PredictServing(Workload):
    """Serving a fitted k=3 model.  One protocol call is a serving session:
    a closed loop of single-row ``predict_proba`` calls on fresh rows (one
    caller, no think time), ``predict_proba`` on 1e5 rows in 1e4-row
    slices, and ``shapreg predict`` on a 20 000-row CSV."""

    name = "predict_serving"
    setup_reps = 3
    N = 10
    SESSION_ROWS = 500
    BATCH_ROWS = 100_000
    BATCH_SIZE = 10_000
    CLI_ROWS = 20_000
    DUAL_PATH_ROWS = 16
    DUAL_PATH_TOL = 1e-10

    def setup(self, seed, work):
        x, y = pure_pairwise(self.N, 1000, 5, seed)
        write_csv(work / "train.csv", x, y)
        rc = cli.main(["fit", "--dataset", str(work / "train.csv"), "--label-column", "label",
                       "--k", "3", "--penalty", "l2", "--lambda", "1", "--seed", str(seed),
                       "--out-dir", str(work)])
        if rc not in (cli.EXIT_OK, cli.EXIT_NO_CONVERGENCE):
            raise RuntimeError(f"set-up fit failed with exit code {rc}")
        rows = np.random.default_rng([seed, 13]).uniform(size=(self.CLI_ROWS, self.N))
        write_csv(work / "rows.csv", rows)
        return {"seed": seed, "model_path": work / "model.json", "rows_csv": work / "rows.csv",
                "rows": rows, "model": ShapleyModel.load(work / "model.json"),
                "batch": np.random.default_rng([seed, 17]).uniform(size=(self.BATCH_ROWS, self.N)),
                "latencies_ns": [], "single_outputs": [], "batch_s": [], "batch_outputs": []}

    def run_protocol(self, state, out_dir):
        model = state["model"]
        session = len(state["batch_s"])
        rows = np.random.default_rng([state["seed"], 11, session]).uniform(
            size=(self.SESSION_ROWS, self.N))
        for row in rows:
            t = time.perf_counter_ns()
            p = model.predict_proba(row)
            state["latencies_ns"].append(time.perf_counter_ns() - t)
            state["single_outputs"].append(p)
        batch = state["batch"]
        t = time.perf_counter()
        outs = [model.predict_proba(batch[i:i + self.BATCH_SIZE])
                for i in range(0, self.BATCH_ROWS, self.BATCH_SIZE)]
        state["batch_s"].append(time.perf_counter() - t)
        state["batch_outputs"].append(outs)
        return cli.main(["predict", "--model", str(state["model_path"]),
                         "--dataset", str(state["rows_csv"]), "--out-dir", str(out_dir)])

    def check_protocol(self, state, out_dir):
        if "reference" not in state:
            state["reference"] = [float(v) for v in state["model"].predict_proba(state["rows"])]
        got = [float(r["probability"]) for r in read_csv_rows(out_dir / "predictions.csv")]
        want = state["reference"]
        mismatched = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
        return [check("predict.cli==predict_proba", mismatched == 0,
                      f"{mismatched} of {len(want)} rows differ")]

    def final_checks(self, state):
        single_bad = sum(not (p.shape == (1,) and 0.0 < p[0] < 1.0) for p in state["single_outputs"])
        batch_bad = sum(sum(o.shape[0] for o in outs) != self.BATCH_ROWS
                        or not all(np.all((o > 0) & (o < 1)) for o in outs)
                        for outs in state["batch_outputs"])
        err = dual_path_error(state["model"], state["rows"][:self.DUAL_PATH_ROWS])
        return [check("predict.single_rows_in_(0,1)", single_bad == 0, f"{single_bad} bad rows"),
                check("predict.batches_in_(0,1)", batch_bad == 0, f"{batch_bad} bad passes"),
                check("predict.dual_path_identity", err <= self.DUAL_PATH_TOL, f"max error {err:.3e}")]

    def diagnostics(self, state):
        lat_us = np.asarray(state["latencies_ns"], dtype=float) / 1e3
        p50, p99 = np.percentile(lat_us, [50, 99])
        return {"predict_row_samples": int(lat_us.size),
                "predict_row_mean_us": float(lat_us.mean()),
                "predict_row_p50_us": float(p50),
                "predict_row_p99_us": float(p99),
                "predict_batch_rows_per_s": self.BATCH_ROWS * len(state["batch_s"]) / sum(state["batch_s"])}


def dual_path_error(model: ShapleyModel, rows: np.ndarray) -> float:
    """Largest |logit - reference| where the reference evaluates the Choquet
    integral of the model's Moebius coefficients, never the design matrix."""
    m = mobius_from_shapley(model.index_set_function())
    x_norm = model.normalize(rows)
    reference = np.array([model.bias + choquet_mobius(m, x) for x in x_norm])
    return float(np.max(np.abs(model.logit(rows) - reference)))


def make(name: str, jobs: int) -> Workload:
    if name == "cv_bench":
        return CvBench()
    if name == "bounds_noise":
        return BoundsNoise(jobs)
    if name == "predict_serving":
        return PredictServing()
    raise ValueError(f"unknown workload '{name}'")
