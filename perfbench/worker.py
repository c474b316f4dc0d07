"""Runs one workload in a fresh process and writes its result as JSON.

    python3 perfbench/worker.py --workload grid --seed 1 --seconds 20 --trace 0 --out result.json

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS thread variables set to 1. Passes repeat until the
time is up. With ``--trace 1`` untraced and traced passes alternate; the
traced ones give the per-layer metrics and the pair gives the overhead.
Outputs are checked against the oracles after the timed loop.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import EXTRA_STATS, LAYER_NAMES, Tracer, aggregate, per_layer_metrics, write_spans

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"


# A tail percentile is reported with at least this many samples beyond it.
TAIL_BEYOND = 10


def min_requests(q, scale):
    """Untraced requests needed before percentile q has TAIL_BEYOND samples beyond it."""
    if scale == "tiny" or q <= 50:
        return 0
    return math.ceil(TAIL_BEYOND / (1.0 - q / 100.0))


def percentile(values, q):
    """Nearest-rank percentile; returns (value, samples beyond it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1], len(ordered) - rank


def _digest(output):
    data = output if isinstance(output, str) else repr(output)
    return hashlib.blake2b(data.encode(), digest_size=16).hexdigest()


def run_pass(workload, outputs, request_base, tracer):
    """Run every request once; returns (timed seconds, items, latencies in s)."""
    total = 0.0
    items = 0
    latencies = []
    for req in workload.requests:
        if tracer is not None:
            tracer.request = request_base + req.index
        start = time.perf_counter()
        try:
            result = workload.call(req)
            error = None
        except Exception as exc:  # a failed request is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        total += elapsed
        items += req.items
        latencies.append(elapsed)
        output = None if error is not None else workload.collect(req, result)
        key = (req.index, None if output is None else _digest(output))
        entry = outputs.setdefault(key, {"req": req, "output": output, "seen": 0, "error": error})
        entry["seen"] += 1
    return total, items, latencies


def measure(workload, seconds, scale, trace_path=None):
    """Timed passes, then output checks. Traces when ``trace_path`` is given."""
    trace = trace_path is not None
    tracer = Tracer() if trace else None
    outputs = {}
    untraced_times, traced_times, latencies = [], [], []
    untraced_items = 0
    traced_stats = []
    first_spans = None
    attempted = 0
    passes = 0
    start = time.perf_counter()
    while True:
        traced = trace and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            pass_s, items, lat = run_pass(
                workload, outputs, passes * len(workload.requests), tracer if traced else None
            )
        finally:
            if traced:
                tracer.uninstall()
        attempted += items
        if traced:
            traced_times.append(pass_s)
            spans = tracer.take()
            traced_stats.append(aggregate(spans))
            if first_spans is None:
                first_spans = spans
        else:
            untraced_times.append(pass_s)
            untraced_items += items
            latencies.extend(lat)
        passes += 1
        done = time.perf_counter() - start
        if trace:
            enough = passes >= 2
        else:
            enough = len(latencies) >= min_requests(workload.tail_percentile, scale)
        if enough and done + 0.5 * pass_s >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = 0
    errors = []
    for entry in outputs.values():
        req = entry["req"]
        if entry["output"] is None:
            bad = req.items
            errors.append({"request": req.describe(), "error": entry["error"] or "no output"})
        else:
            bad = workload.check(req, entry["output"])
            if bad:
                errors.append({"request": req.describe(), "error": f"{bad} items fail the oracle check"})
        failed += bad * entry["seen"]

    details = {
        "passes": passes,
        "requests_per_pass": len(workload.requests),
        "untraced_pass_s": untraced_times,
        "traced_pass_s": traced_times,
        "errors": errors[:20],
    }
    if trace:
        metrics, layer_details = layer_metrics(traced_stats, traced_times, untraced_times)
        details.update(layer_details)
        write_spans(trace_path, first_spans)
        details["spans_file"] = os.path.relpath(trace_path, ROOT)
        details["spans_written"] = len(first_spans)
    else:
        q = workload.tail_percentile
        tail_value, beyond = percentile(latencies, q)
        metrics = {
            "items_per_s": (untraced_items / sum(untraced_times), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": (tail_value * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        details.update(
            {
                "latency_samples": len(latencies),
                "tail_percentile": q,
                "tail_samples_beyond": beyond,
            }
        )
    return attempted, failed, metrics, details


def layer_metrics(traced_stats, traced_times, untraced_times):
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    first = traced_stats[0]
    metrics = {}
    for layer in LAYER_NAMES:
        st = first[layer]
        metrics[f"{layer}.calls"] = st["calls"]
        metrics[f"{layer}.self_s"] = statistics.median(s[layer]["self_s"] for s in traced_stats)
        for stat, _ in EXTRA_STATS.get(layer, ()):
            metrics[f"{layer}.{stat}"] = st[stat]
    overhead = statistics.median(traced_times) / statistics.median(untraced_times) - 1.0
    metrics["trace.overhead_ratio"] = overhead
    # Counts must repeat exactly from one traced pass to the next.
    counts_repeat = all(
        s[layer][key] == first[layer][key]
        for s in traced_stats
        for layer in LAYER_NAMES
        for key in first[layer]
        if key != "self_s"
    )
    return (
        {name: (value, units[name]) for name, value in metrics.items()},
        {"traced_passes": len(traced_stats), "counts_repeat": counts_repeat},
    )


def provenance(seed):
    import numpy
    import ghztangle

    return {
        "backend": ghztangle.backend_name(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GHZTANGLE_BACKEND")
        },
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "tests"))
    import ghztangle

    src = ROOT / "src"
    if not Path(ghztangle.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ghztangle imported from {ghztangle.__file__}, not from {src}")
    from workloads import WORKLOADS

    grid_dir = WORK_DIR / "out"
    grid_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.scale, str(grid_dir))
    trace_path = None
    if args.trace:
        trace_path = WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.csv"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
    attempted, failed, metrics, details = measure(workload, args.seconds, args.scale, trace_path)
    result = {
        "workload": args.workload,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "details": details,
        "provenance": provenance(args.seed),
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1)


if __name__ == "__main__":
    main()
