"""Benchmark of the ghztangle pipeline, driven from outside the package.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each run measures set-up time in fresh interpreters, then runs the workload
in one fresh worker process (one client, one request at a time, BLAS
threads pinned to 1), checks every output against plain-numpy oracles and
prints one JSON object as the last line of standard output. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones. See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("grid", "esd", "dense_states")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh interpreters per set-up measurement; the first is discarded because
# it may be the one that writes the bytecode cache.
SETUP_PROBES = {"full": 9, "tiny": 1}
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def measure_setup(seed, probes, deadline):
    """Median seconds from starting an interpreter to its first full_report."""
    rng = random.Random(seed)
    r, p = rng.uniform(0.0, math.pi / 4), rng.uniform(0.0, 1.0)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), repr(r), repr(p)]
    env = child_env()
    times = []
    values = set()
    for _ in range(probes + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        done, value, origin = proc.stdout.split(maxsplit=2)
        if not Path(origin.strip()).resolve().is_relative_to(SRC):
            raise BenchError(f"ghztangle imported from {origin}, not from {SRC}")
        times.append(float(done) - start)
        values.add(float(value))
    if len(values) != 1:
        raise BenchError(f"set-up probes disagree: {sorted(values)}")
    return statistics.median(times[1:]), times, (r, p, values.pop())


def check_setup_value(r, p, value):
    """The probe's A|BC negativity against the mode-trace oracle."""
    sys.path[:0] = [str(SRC), str(ROOT / "tests"), str(HERE)]
    from workloads import ORACLE_TOL, oracle_dephased, oracle_negativities

    return abs(value - oracle_negativities(oracle_dephased("phase_damping", r, p))[0]) <= ORACLE_TOL


def source_identity():
    """Git commit when the checkout is a repository; always a digest of src/."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run_workload(workload, seed, seconds, trace, scale):
    deadline = time.monotonic() + RUN_LIMIT_S
    metrics = {}
    setup = None
    if not trace:
        setup_s, probe_times, (r, p, value) = measure_setup(seed, SETUP_PROBES[scale], deadline)
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        setup = {"probe_s": probe_times, "probe_point": [r, p], "probe_ok": check_setup_value(r, p, value)}

    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--scale", scale, "--out", str(out),
    ]
    if out.exists():
        out.unlink()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
    with open(out) as handle:
        result = json.load(handle)

    metrics.update(result["metrics"])
    if setup is not None:
        # The probe's report is one more checked item.
        result["details"]["setup"] = setup
        result["attempted"] += 1
        result["failed"] += not setup["probe_ok"]
        metrics["ok_ratio"] = {"value": 1.0 - result["failed"] / result["attempted"], "unit": "ratio"}
    result["metrics"] = metrics
    result["details"]["failed_ratio"] = result["failed"] / result["attempted"]
    result["provenance"].update(source_identity())
    result["provenance"]["scale"] = scale
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1)
    return result


def summary(result):
    d = result["details"]
    lines = [f"[{result['workload']}] attempted {result['attempted']} failed {result['failed']}"]
    lines.append(f"  failed_ratio {d['failed_ratio']:.6g} ratio")
    if "tail_percentile" in d:
        lines.append(
            f"  latency_tail_ms is p{d['tail_percentile']:g} of {d['latency_samples']} requests "
            f"({d['tail_samples_beyond']} beyond)"
        )
    for name, m in result["metrics"].items():
        lines.append(f"  {name} {m['value']:.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SETUP_PROBES), default="full",
                        help="input size; tiny is for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "ghztangle" / "__init__.py").is_file():
        print(f"error: no ghztangle sources under {SRC}", file=sys.stderr)
        return 1
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for result in results.values():
        print("provenance " + json.dumps(result["provenance"], sort_keys=True))
        print(summary(result))
    final = {
        name: {
            "correct": r["failed"] == 0,
            "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": r["metrics"],
        }
        for name, r in results.items()
    }
    print(json.dumps(final if args.workload == "all" else final[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
