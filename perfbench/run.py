#!/usr/bin/env python3
"""Benchmark for charp: three closed-loop workloads, checked answers.

    python3 perfbench/run.py --workload valuate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare before.json after.json

Run it from the root of a source checkout; it imports charp from src/.
Each run builds the workload's state several times (set-up time is their
median; see harness.timed_setup), runs a disjoint warm-up, then times ops
from one client until --seconds have passed.  Times are CPU time of the
benchmark process and its children (harness.cpu_seconds); the record also
holds the wall-clock busy time, ops_per_s and op_p50_ms.  Every answer is
checked against a value known by construction.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  The line before it is the full record: machine, op mix, tail
definition, excluded cases and failures; --out writes that record to a file
that --compare reads.

--trace 1 runs two halves of the workload's fixed op count (trace_ops, or
--seconds each if that comes first), so that counts repeat exactly for a
seed: the first runs untraced, the second with spans wrapped around
charp's entry points (see spans.py); the ratio of their time per op is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spans  # noqa: E402

WORKLOADS = {"valuate": "valuate", "multiplier": "multiplier",
             "cli": "clicmds"}  # workload -> module
PROBE_REPEATS = 5


def load_charp():
    """Import charp from the checkout's src/, or exit without a result."""
    if not (SRC / "charp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no charp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    return importlib.import_module("charp")


def probe_ms(code: str) -> float:
    """Median wall time of `python -c code` in a fresh interpreter."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code],
                       env=dict(os.environ, PYTHONPATH=str(SRC)),
                       cwd=ROOT, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


def machine():
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    kernels = importlib.import_module("charp._kernels")
    backend = getattr(kernels, "backend", None)
    import numpy
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "kernel_backend": backend() if backend else "none",
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def as_metrics(pairs):
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in pairs.items()}


def run(args) -> int:
    charp = load_charp()
    info = machine()
    wl = importlib.import_module(WORKLOADS[args.workload]).Workload(
        charp, ROOT)
    state, setup_s = harness.timed_setup(lambda: wl.setup(args.seed))
    for op in wl.warmup(state, args.seed, in_process=bool(args.trace)):
        reason = harness.run_one(op, wl.limit_s)[0]
        if reason is not None:
            print(f"perfbench: warm-up op {op.kind} failed: {reason}",
                  file=sys.stderr)
            return 1
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": info, "op_limit_s": wl.limit_s,
              "excluded": wl.excluded}
    if args.trace:
        stats, metrics, detail, right = traced(wl, state, args)
    else:
        stats = harness.measure(wl.ops(state, args.seed, "timed"),
                                args.seconds, wl.limit_s)
        right = len(stats.latencies) > harness.TAIL_SAMPLES
        metrics, detail = ({}, {})
        if right:
            metrics, detail = harness.end_to_end(
                stats, setup_s, peak_rss_mb(wl.children))
    record.update(detail)
    record.update({"setup_s": setup_s, "kinds": stats.kinds,
                   "failures": stats.failures[:20],
                   "metrics": as_metrics(metrics)})
    correct = right and stats.failed == 0
    result = {"correct": correct, "attempted": stats.attempted,
              "failed": stats.failed, "metrics": as_metrics(metrics)}
    line = json.dumps(record, default=str)
    print(line)
    if args.out:
        Path(args.out).write_text(line + "\n")
    print(json.dumps(result))
    return 0


def traced(wl, state, args):
    """Untraced then traced halves over disjoint op streams of one size."""
    half = dict(seconds=args.seconds, limit=wl.limit_s, max_ops=wl.trace_ops)
    plain = harness.measure(wl.ops(state, args.seed, "baseline", True),
                            **half)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        traced_stats = harness.measure(
            wl.ops(state, args.seed, "traced", True), span=tracer.op, **half)
    finally:
        spans.uninstall(undo)
    per_op_plain = plain.busy / max(plain.attempted, 1)
    per_op_traced = traced_stats.busy / max(traced_stats.attempted, 1)
    overhead = per_op_traced / per_op_plain if per_op_plain else 0.0
    metrics = tracer.layer_metrics(
        overhead, probe_ms("pass"), probe_ms("import charp"))
    stats = harness.RunStats()
    stats.attempted = plain.attempted + traced_stats.attempted
    stats.failures = plain.failures + traced_stats.failures
    stats.kinds = traced_stats.kinds
    detail = {"untraced_ops": plain.attempted, "untraced_busy_s": plain.busy,
              "layer_self_s": tracer.self_seconds()}
    return stats, metrics, detail, traced_stats.attempted > 0


def compare(old_path, new_path) -> int:
    """Print per-metric deltas between two result files."""
    old = json.loads(Path(old_path).read_text().splitlines()[-1])
    new = json.loads(Path(new_path).read_text().splitlines()[-1])
    for label in ("workload", "seed", "trace"):
        if old.get(label) != new.get(label):
            print(f"note: {label} differs: {old.get(label)} vs "
                  f"{new.get(label)}")
    names = list(old["metrics"]) + [n for n in new["metrics"]
                                    if n not in old["metrics"]]
    width = max(len(n) for n in names)
    print(f"{'metric'.ljust(width)}  {'unit':>10}  {'old':>14}  "
          f"{'new':>14}  {'delta':>8}")
    for name in names:
        a = old["metrics"].get(name, {}).get("value")
        b = new["metrics"].get(name, {}).get("value")
        unit = (new["metrics"].get(name) or old["metrics"][name])["unit"]
        if a is None or b is None:
            delta = "missing"
        elif a == 0:
            delta = "=" if b == 0 else "new"
        else:
            delta = f"{100.0 * (b - a) / abs(a):+.1f}%"
        print(f"{name.ljust(width)}  {unit:>10}  {_num(a):>14}  "
              f"{_num(b):>14}  {delta:>8}")
    return 0


def _num(v):
    return "-" if v is None else f"{v:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record here")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="print metric deltas between two result files")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required unless --compare is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
