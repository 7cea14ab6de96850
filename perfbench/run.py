"""Run one shapreg benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cv_bench --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` wraps every shapreg module and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads, metrics,
units and bounds are listed in ``BENCHMARK.json``; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

# Pin the BLAS pools before numpy is imported anywhere; the benchmark's only
# parallelism is bounds' --jobs thread pool, capped at nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cv_bench", "bounds_noise", "predict_serving")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "shapreg" / "__init__.py").is_file():
        print(f"error: no shapreg sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import numpy  # noqa: F401  (part of what a user pays to start)
    import shapreg
    import_s = time.perf_counter() - start
    if not Path(shapreg.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported shapreg from {shapreg.__file__}, not from {src}", file=sys.stderr)
        return 2

    import harness
    return harness.run(ROOT, args, import_s)


if __name__ == "__main__":
    sys.exit(main())
