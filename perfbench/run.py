#!/usr/bin/env python3
"""thermophase benchmark: one workload per call.

    python3 perfbench/run.py --workload simulate-log64 --seed 1 --seconds 20 --trace 0

Runs from a source checkout (``src/`` and ``configs/`` next to this
directory); nothing needs to be installed.  One process, one thread of work,
BLAS pinned to one thread.

A run times the set-up several times, then repeats the workload's operation
until ``--seconds`` have passed (after a warm-up where the workload has
one), checking every operation.  With ``--trace 1`` it then traces one
set-up plus one operation on the same inputs as the first timed operation,
and checks that the counters and the output bytes match the untraced ones.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The full
report (environment, counters, timings, per-layer metrics) and the spans go
to ``perfbench/_work/``.  ``--smoke`` runs every workload at toy size.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 5, 50, 1.0


def _timing(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "values": values}
    q = math.floor(100 * (1 - 10 / n))
    if q > 50:
        out[f"p{q}"] = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return out


def _blas_threads_in_use():
    """Thread count OpenBLAS reports at run time, or None where it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _git_commit():
    # the benchmark may run from a checkout that is not a repository; never
    # look above it or read git configuration from outside it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": {"l1d": _getconf("LEVEL1_DCACHE_SIZE"),
                        "l2": _getconf("LEVEL2_CACHE_SIZE"),
                        "l3": _getconf("LEVEL3_CACHE_SIZE")},
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


class Run:
    """One benchmark run of one workload; collects timings, checks and counters."""

    def __init__(self, workload, tracer):
        self.wl = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checks: list[str] = []
        self.digests: list[bytes] = []

    def op(self, index: int) -> tuple[dict, bytes | None]:
        """Run and check one operation; returns its section times and output digest."""
        self.attempted += 1
        self.tracer.take_sections()
        try:
            outputs = self.wl.run(self.tracer, index)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            self.problems.append(f"op {index}: {traceback.format_exc()}")
            self.tracer.take_sections()
            return {}, None
        times = self.tracer.take_sections()
        ok, detail, digest = self.wl.check(outputs)
        self.digests.append(digest)
        self.checks.append(f"op {index}: {detail}")
        if not ok:
            self.failed += 1
            self.problems.append(f"op {index}: {detail}")
        return times, digest


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload; returns the report whose ``result`` is the final stdout line."""
    from layers import layer_metrics
    from tracing import Tracer
    from workloads import WORKLOADS

    env = environment()
    wl = WORKLOADS[workload](ROOT, WORK, seed, smoke)
    tracer = Tracer()
    r = Run(wl, tracer)

    # set-up, timed several times; the last one stays in use
    setup_times = []
    t_start = time.perf_counter()
    while len(setup_times) < SETUP_MAX_REPS and (
            len(setup_times) < SETUP_MIN_REPS
            or time.perf_counter() - t_start < SETUP_BUDGET_S):
        wl.setup(tracer)
        setup_times.append(tracer.take_sections()["setup_s"])

    # untraced operations, with the counting hooks only
    tracer.install(spans=False)
    try:
        for i in range(wl.warmup_ops):
            r.op(i)
        first = wl.warmup_ops
        tracer.take_counters()
        timed: list[dict] = []
        counts0 = digest0 = None
        t_start = time.perf_counter()
        index = first
        while not timed or time.perf_counter() - t_start < seconds:
            times, digest = r.op(index)
            if index == first:
                counts0, digest0 = tracer.take_counters(), digest
            if times:
                timed.append(times)
            index += 1
            if not times and time.perf_counter() - t_start >= seconds:
                break
    finally:
        tracer.restore()
    tracer.take_counters()

    if wl.same_input_each_op and len(set(r.digests)) > 1:
        r.problems.append("repeated operation gave different output bytes")

    timings = {"setup_s": _timing(setup_times)}
    for name in wl.sections:
        values = [t[name] for t in timed if name in t]
        if values:
            timings[name] = _timing(values)
    op_values = [sum(t.values()) for t in timed]
    if op_values:
        timings["op_s"] = _timing(op_values)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "environment": env, "sizes": wl.sizes(env["cache_bytes"]["l2"]),
        "timings": timings, "peak_rss_mb": peak_rss_mb,
        "counters_first_op": dict(sorted((counts0 or {}).items())),
    }

    if trace:
        tracer.reset_stats()
        tracer.install(spans=True)
        try:
            tracer.op_id = 0
            wl.setup(tracer)
            setup_counts = tracer.take_counters()
            tracer.op_id = 1
            r.attempted += 1
            outputs = wl.run(tracer, first)
        finally:
            tracer.restore()
        traced_times = tracer.take_sections()
        op_counts = tracer.take_counters()
        ok, detail, digest = wl.check(outputs)
        r.checks.append(f"traced op: {detail}")
        if not ok:
            r.failed += 1
            r.problems.append(f"traced op: {detail}")
        if op_counts != counts0:
            r.problems.append("traced counters differ from the untraced ones")
        if digest != digest0:
            r.problems.append("traced output bytes differ from the untraced ones")
        traced_s = sum(traced_times.values())
        untraced_s = timings["setup_s"]["median"] + timings.get("op_s", {}).get("median", 0.0)
        layer = layer_metrics(tracer.stats, setup_counts + op_counts, traced_s, untraced_s,
                              tracer.hook_errors)
        spans_path = os.path.join(wl.work_dir, "spans.csv")
        tracer.write_spans(spans_path)
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        report["counters_traced_op"] = dict(sorted(op_counts.items()))
        report["spans"] = {"path": os.path.relpath(spans_path, ROOT), "count": len(tracer.spans)}
        metrics = report["per_layer"]
    else:
        metrics = {}
        if "op_s" in timings:
            metrics["op_s"] = {"value": timings["op_s"]["median"], "unit": "s"}
        metrics["setup_s"] = {"value": timings["setup_s"]["median"], "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}

    report["checks"] = r.checks
    report["problems"] = r.problems
    report["result"] = {
        "correct": r.failed == 0 and not r.problems,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": metrics,
    }
    with open(os.path.join(wl.work_dir, f"report-trace{int(trace)}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    return report


def _print_report(report: dict) -> None:
    w = report["workload"]
    env = report["environment"]
    print(f"workload {w} seed={report['seed']} seconds={report['seconds']} "
          f"trace={report['trace']} smoke={report['smoke']}")
    print(f"env python={env['python']} numpy={env['numpy']} blas={env['blas']['name']} "
          f"{env['blas']['version']} blas_threads={env['blas_threads_pinned']} "
          f"(in use: {env['blas_threads_in_use']}) nproc={env['nproc']} "
          f"cache={env['cache_bytes']} commit={env['git_commit']}")
    print("sizes " + json.dumps(report["sizes"]))
    for name, t in report["timings"].items():
        tail = ", ".join(f"{k}={v:.6g}" for k, v in t.items() if k[0] == "p" and k[1:].isdigit())
        print(f"e2e {w} {name} median={t['median']:.6g} s n={t['n']}"
              + (f" {tail}" if tail else " (no tail percentile: 20 samples or fewer)"))
    print(f"e2e {w} peak_rss_mb {report['peak_rss_mb']:.6g} MB")
    print("counters " + json.dumps(report["counters_first_op"]))
    for name, m in report.get("per_layer", {}).items():
        print(f"layer {w} {name} {m['value']:.6g} {m['unit']}")
    for problem in report["problems"]:
        print(f"problem {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not os.path.isdir(os.path.join(ROOT, "src", "thermophase")):
        print(f"no thermophase sources under {ROOT}/src", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    _print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
