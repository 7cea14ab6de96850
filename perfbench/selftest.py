"""Self-test of the benchmark's instrumentation.

Run from the root of a checkout (takes a few seconds):

    python3 perfbench/selftest.py

It checks that
1. tracing replaces every public function of every shapreg module, and every
   public ShapleyModel method, at every binding in the package, including
   the names callers use (cv.fit, analysis.fit, model.design_matrix,
   cv.map_ordered, ...), and that restoring puts every original back;
2. a small ``shapreg bench`` and ``shapreg bounds`` make exactly their
   closed-form number of fits, both under the count-only hooks of the timed
   run and under the tracer, with the same deterministic counts;
3. work on bounds' thread pool stays linked to its caller: every fit span
   has an ancestor chain that reaches ``cli.main``;
4. the tracer yields every per-layer metric that BENCHMARK.json lists.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hooks  # noqa: E402
import workloads  # noqa: E402
from shapreg import cli  # noqa: E402

# the bindings the benchmark's layer metrics depend on
CALLER_BINDINGS = [("cv", "fit"), ("analysis", "fit"), ("cli", "fit"), ("train", "fit"),
                   ("train", "design_matrix"), ("model", "design_matrix"),
                   ("analysis", "design_matrix"), ("cli", "design_matrix"),
                   ("cv", "map_ordered"), ("analysis", "map_ordered"),
                   ("cv", "metrics"), ("cli", "load_csv"), ("basis", "indices_of"),
                   ("basis", "mask_of")]

SMALL_BENCH_FITS = 5 * (2 * 3 + 1) + 2   # 5 outer x (2 lambdas x 3 inner + refit) + 2 bootstrap
SMALL_BOUNDS_FITS = 2 * (2 + 1) + 1 * 3 * 2  # 2 C x (base + 2 flips) + 1 iteration x 3 k x 2 penalties


def small_protocols(work: Path) -> list[tuple[list[str], int]]:
    x, y = workloads.pure_pairwise(4, 60, 2, 3)
    workloads.write_csv(work / "small.csv", x, y)
    bench = ["bench", "--dataset", str(work / "small.csv"), "--label-column", "label",
             "--penalties", "l2", "--k", "1", "--lambda-grid", "0.1,10",
             "--noise-repeats", "1", "--bootstrap-resamples", "2", "--seed", "1",
             "--out-dir", str(work / "bench")]
    bounds = ["bounds", "--sens-n", "4", "--sens-samples", "40", "--c-grid", "1,2",
              "--sens-repeats", "2", "--gap-n", "3", "--gap-samples", "40",
              "--gap-k-range", "1..3", "--gap-iterations", "1", "--jobs", "2",
              "--seed", "1", "--out-dir", str(work / "bounds")]
    return [(bench, SMALL_BENCH_FITS), (bounds, SMALL_BOUNDS_FITS)]


def main() -> int:
    failures = []

    def expect(name, ok, detail=""):
        print(("ok   " if ok else "FAIL ") + name + ("" if ok else f": {detail}"))
        if not ok:
            failures.append(name)

    modules = hooks.package_modules()
    originals = {(short, name): value for short, mod in modules.items()
                 for name, value in vars(mod).items() if callable(value)}
    cls = modules["model"].ShapleyModel
    class_originals = dict(vars(cls))
    public = {(layer, name) for layer in hooks.LAYERS
              for name in hooks.public_functions(modules[layer])}

    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        protocols = small_protocols(work)

        untraced = []
        counts = hooks.Counts()
        patch = hooks.install_counts(counts)
        try:
            for argv, fits in protocols:
                before = counts.snapshot()
                rc = cli.main(argv)
                det ={k: counts.snapshot()[k] - before[k] for k in hooks.DETERMINISTIC_COUNTS}
                untraced.append(det)
                expect(f"untraced {argv[0]}: exit 0, {fits} fits",
                       rc == 0 and det["fits"] == fits, f"exit {rc}, counts {det}")
        finally:
            patch.restore()

        counts = hooks.Counts()
        tracer = hooks.Tracer(counts)
        patch = tracer.install()
        try:
            left = patch.unpatched_bindings()
            expect("every binding of a wrapped function replaced", not left, f"{left}")
            unwrapped = [f"{l}.{n}" for l, n in sorted(public)
                         if getattr(modules[l], n) is originals[(l, n)]]
            expect("every public function wrapped in its module", not unwrapped, f"{unwrapped}")
            missed = [f"{m}.{n}" for m, n in CALLER_BINDINGS
                      if getattr(modules[m], n) is originals[(m, n)]]
            expect("caller bindings wrapped", not missed, f"{missed}")
            methods = [n for n in ("predict_proba", "predict", "logit", "logit_normalized", "normalize")
                       if vars(cls)[n] is class_originals[n]]
            expect("ShapleyModel methods wrapped", not methods, f"{methods}")
            for (argv, fits), det0 in zip(protocols, untraced):
                before = counts.snapshot()
                n_spans = len(tracer.spans)
                rc = cli.main(argv)
                det = {k: counts.snapshot()[k] - before[k] for k in hooks.DETERMINISTIC_COUNTS}
                spans = tracer.spans[n_spans:]
                fit_spans = [s for s in spans if s[3] == "train.fit"]
                expect(f"traced {argv[0]}: {fits} fit spans", rc == 0 and len(fit_spans) == fits,
                       f"exit {rc}, {len(fit_spans)} fit spans")
                expect(f"traced {argv[0]}: counts equal untraced", det == det0, f"{det} vs {det0}")
                by_id = {s[0]: s for s in spans}

                def reaches_main(s):
                    while s is not None:
                        if s[3] == "cli.main":
                            return True
                        s = by_id.get(s[1])
                    return False
                orphans = [s[0] for s in fit_spans if not reaches_main(s)]
                expect(f"traced {argv[0]}: every fit span descends from cli.main", not orphans,
                       f"{len(orphans)} orphaned fit spans")
            metrics = hooks.layer_metrics(tracer.spans, tracer.calls())
        finally:
            patch.restore()

        back = [f"{s}.{n}" for (s, n), v in originals.items() if getattr(modules[s], n) is not v]
        back += [n for n, v in class_originals.items() if vars(cls).get(n) is not v]
        expect("restore puts every original back", not back, f"{back}")
        expect("bounds' pool ran tasks", metrics["parallel.tasks"] > 0 and metrics["parallel.concurrency"] > 0,
               f"tasks {metrics['parallel.tasks']}, concurrency {metrics['parallel.concurrency']}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_share"}
        expect("tracer yields every per-layer metric", wanted == set(metrics),
               f"missing {sorted(wanted - set(metrics))}, extra {sorted(set(metrics) - wanted)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
