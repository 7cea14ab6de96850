"""Timing, output checks and result records for one run.

Imported by ``run.py`` only after it has pinned the BLAS threads and put the
checkout's ``src`` on the import path.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import hooks
import workloads

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MAX_PROTOCOL_REPS = 50


class CpuAlternator:
    """Move the calling (main) thread to the next allowed CPU every ``period_s``.

    On the 2-vCPU virtual machine this was tuned on, each vCPU flips between
    a fast and a ~1.7x slower state every few seconds, so a single-threaded
    call that stays on one vCPU takes that vCPU's luck for the whole call.
    Alternating averages the call over both, as bounds' two pool threads do
    by themselves (its protocol_s spread over ten runs was half that of the
    single-threaded workloads).  It runs from SIGALRM in the main thread and
    starts no thread.  A thread created while it runs would inherit a
    one-CPU affinity, so protocols that start a pool run without it."""

    def __init__(self, period_s: float = 0.02):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.period_s = period_s
        self._next = itertools.cycle(self.cpus)
        self.active = False

    def _flip(self, signum, frame) -> None:
        if self.active:
            os.sched_setaffinity(0, {next(self._next)})

    def __enter__(self):
        if len(self.cpus) > 1:
            signal.signal(signal.SIGALRM, self._flip)
            self.active = True
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            self.active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            os.sched_setaffinity(0, set(self.cpus))


class Ledger:
    """Operations and output checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}")
        return ok

    def call(self, name: str, fn):
        """Run one operation; an exception counts as a failure."""
        try:
            return True, fn()
        except Exception:
            self.record(name, False, traceback.format_exc(limit=3))
            return False, None


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "perfbench").rglob("*.py")]):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git repository (read, not run)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, args, digest: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "source_digest": digest,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def deterministic(counts) -> dict:
    return {k: int(counts.get(k, 0)) for k in hooks.DETERMINISTIC_COUNTS}


def delta(after, before) -> dict:
    return {k: int(after.get(k, 0)) - int(before.get(k, 0)) for k in after}


def run_setups(wl, seed, work: Path, reps: int, counts):
    """Set up ``reps`` times; returns (last state, durations, counts of the first)."""
    times, first, state = [], None, None
    for rep in range(reps):
        d = work / f"setup{rep}"
        d.mkdir(parents=True)
        before = counts.snapshot()
        t = time.perf_counter()
        state = wl.setup(seed, d)
        times.append(time.perf_counter() - t)
        if first is None:
            first = delta(counts.snapshot(), before)
    return state, times, first


def call_protocol(wl, state, out: Path, counts, ledger) -> tuple[float, dict]:
    before = counts.snapshot()
    alternate = CpuAlternator() if not wl.starts_pool else contextlib.nullcontext()
    with alternate:
        t = time.perf_counter()
        ok, rc = ledger.call(wl.name + ".protocol", lambda: wl.run_protocol(state, out))
        seconds = time.perf_counter() - t
    if ok:
        ledger.record(wl.name + ".protocol", rc == 0, f"exit code {rc}")
    return seconds, delta(counts.snapshot(), before)


def run_protocols(wl, state, work: Path, budget_s: float, counts, ledger) -> dict:
    """Call the protocol at least once, then again while the next call is
    expected to end within ``budget_s``."""
    out = {"times": [], "counts": [], "outs": []}
    start = time.perf_counter()
    while True:
        d = work / f"protocol{len(out['times'])}"
        seconds, per_call = call_protocol(wl, state, d, counts, ledger)
        out["times"].append(seconds)
        out["counts"].append(per_call)
        out["outs"].append(d)
        elapsed = time.perf_counter() - start
        if len(out["times"]) >= MAX_PROTOCOL_REPS or elapsed + statistics.fmean(out["times"]) > budget_s:
            return out


def output_checks(wl, state, calls: dict, ledger) -> None:
    for out in calls["outs"]:
        ran, results = ledger.call(wl.name + ".check", lambda: wl.check_protocol(state, out))
        for name, ok, detail in results if ran else ():
            ledger.record(name, ok, detail)
    ran, results = ledger.call(wl.name + ".final_checks", lambda: wl.final_checks(state))
    for name, ok, detail in results if ran else ():
        ledger.record(name, ok, detail)
    if wl.closed_form_fits is not None:
        fits = [c.get("fits", 0) for c in calls["counts"]]
        ledger.record("fits==closed_form", all(f == wl.closed_form_fits for f in fits),
                      f"fits per protocol call {fits}, closed form {wl.closed_form_fits}")
    first = deterministic(calls["counts"][0])
    ledger.record("counts repeat across protocol calls",
                  all(deterministic(c) == first for c in calls["counts"]), f"{calls['counts']}")


def compare_record(path: Path, counts: dict, ledger, label: str) -> None:
    """Deterministic counts must match any earlier run of this seed and source."""
    if path.is_file():
        earlier = json.loads(path.read_text())
        ledger.record(f"counts repeat across runs ({label})", earlier == counts,
                      f"earlier {earlier}, now {counts}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True) + "\n")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def first_counts(setup_counts: dict, protocol_counts: list) -> dict:
    """Deterministic counts of the first set-up plus the first protocol call."""
    return {k: setup_counts.get(k, 0) + protocol_counts[0].get(k, 0)
            for k in hooks.DETERMINISTIC_COUNTS}


def measure(wl, args, work: Path, import_s: float, ledger) -> tuple[dict, dict]:
    """Untraced run: the end-to-end metrics and the deterministic counts."""
    counts = hooks.Counts()
    patch = hooks.install_counts(counts)
    try:
        state, setup_times, setup_counts = run_setups(wl, args.seed, work, wl.setup_reps, counts)
        calls = run_protocols(wl, state, work, args.seconds, counts, ledger)
        total = counts.snapshot()
    finally:
        patch.restore()
    output_checks(wl, state, calls, ledger)

    fits = total.get("fits", 0)
    ledger.record("fits made", fits > 0, "no fit in set-up or protocol")
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        # a mean, not a median: see README, "How a run spends --seconds"
        "protocol_s": statistics.fmean(calls["times"]),
        "fits_converged_share": (fits - total.get("fits_unconverged", 0)) / fits if fits else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"import_s": import_s, "setup_reps_s": setup_times, "protocol_calls_s": calls["times"],
            "diagnostics": wl.diagnostics(state), "counts_total": dict(total),
            "deterministic_counts": first_counts(setup_counts, calls["counts"])}
    return metrics, info


def measure_traced(wl, args, work: Path, stored: dict | None, ledger):
    """Traced run: per-layer metrics from one set-up and one protocol call."""
    if stored is None:
        # no untraced run of this seed and source yet: time one call here
        counts0 = hooks.Counts()
        patch = hooks.install_counts(counts0)
        try:
            state0, _, setup0 = run_setups(wl, args.seed, work / "untraced", 1, counts0)
            untraced_s, per_call = call_protocol(wl, state0, work / "untraced" / "protocol",
                                                 counts0, ledger)
        finally:
            patch.restore()
        untraced_det = first_counts(setup0, [per_call])
    else:
        untraced_s = stored["metrics"]["protocol_s"]
        untraced_det = stored["info"]["deterministic_counts"]

    counts = hooks.Counts()
    tracer = hooks.Tracer(counts)
    patch = tracer.install()
    try:
        left = patch.unpatched_bindings()
        ledger.record("every binding wrapped", not left, f"unwrapped: {left}")
        state, _, setup_counts = run_setups(wl, args.seed, work / "traced", 1, counts)
        calls = run_protocols(wl, state, work / "traced", 0.0, counts, ledger)
    finally:
        patch.restore()
    output_checks(wl, state, calls, ledger)
    det = first_counts(setup_counts, calls["counts"])
    ledger.record("counts traced == untraced", det == untraced_det,
                  f"traced {det}, untraced {untraced_det}")

    traced_s = calls["times"][0]
    metrics = hooks.layer_metrics(tracer.spans, tracer.calls())
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    info = {"protocol_s_traced": traced_s, "protocol_s_untraced": untraced_s,
            "untraced_from": "stored run" if stored else "this run",
            "spans": len(tracer.spans), "deterministic_counts": det}
    return metrics, info, tracer


def write_trace(path: Path, spans, calls) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for sid, parent, layer, name, start, end, attrs in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer, "name": name,
                                 "start": start, "end": end, **(attrs or {})}) + "\n")
        fh.write(json.dumps({"counts": dict(calls)}) + "\n")


def run(root: Path, args, import_s: float) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    digest = source_digest(root)
    env = environment(root, args, digest)
    print("env: " + json.dumps(env, sort_keys=True))
    jobs = min(2, os.cpu_count() or 1)
    wl = workloads.make(args.workload, jobs)

    out_root = root / ".perfbench_out"
    work = root / ".perfbench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    results = out_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    untraced_path = results / f"{wl.name}-seed{args.seed}-trace0.json"
    ledger = Ledger()
    try:
        if args.trace:
            stored = None
            if untraced_path.is_file():
                prior = json.loads(untraced_path.read_text())
                if prior["env"]["source_digest"] == digest:
                    stored = prior
            metrics, info, tracer = measure_traced(wl, args, work, stored, ledger)
            write_trace(out_root / f"trace-{wl.name}-seed{args.seed}.jsonl",
                        tracer.spans, tracer.calls())
            wanted = spec["per_layer"]
        else:
            metrics, info = measure(wl, args, work, import_s, ledger)
            wanted = spec["end_to_end"]
        compare_record(out_root / "counts" / f"{wl.name}-seed{args.seed}-{digest[:16]}.json",
                       info["deterministic_counts"], ledger, "trace" if args.trace else "untraced")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {"env": env, "metrics": metrics, "info": info, "attempted": ledger.attempted,
              "failed": ledger.failed, "failures": ledger.failures}
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    for m in wanted:
        print(f"{m['name']:32s} {metrics[m['name']]:>16.6g} {m['unit']}")
    for name, value in info.get("diagnostics", {}).items():
        print(f"{name:32s} {value:>16.6g} (not gated)")
    print(f"{'failed_share':32s} {ledger.failed / max(ledger.attempted, 1):>16.6g} "
          f"({ledger.failed} of {ledger.attempted} operations and checks)")
    for line in ledger.failures:
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": out_metrics}))
    return 0
