"""Benchmark of the gridpose pipeline on the toy preset.

Run from the root of a checkout:

    python3 bench/run.py --workload infer --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

Prints the environment, every metric with its unit and what it means on
the workload, then, as the last line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones. `--workload all` runs the three workloads one after
another and prefixes each metric with its workload. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1  # at most nproc on any machine


def cap_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is imported.

    The toy train loss differs in its last digits between 1 and 2 OpenBLAS
    threads, so the count is fixed for repeatable losses. It is one, not
    nproc: the toy preset's GEMMs are small, so a train step is no slower
    on one thread, and a second thread that must wait for the first makes
    every GEMM as slow as the slower of two shared CPUs.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


# glibc mallopt parameters
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20   # glibc's largest allowed value
TRIM_THRESHOLD = 512 << 20


def fix_malloc_thresholds() -> str:
    """Fix glibc's mmap and trim thresholds; returns what was set.

    By default glibc raises its mmap threshold as large blocks are freed
    and trims the heap when its top is free, so whether a train step's
    temporaries come from the heap or from fresh pages depends on the
    run's allocation history: in one run each step took 8482 page faults
    and 10-40 ms of system time for its first few seconds, and none after.
    Fixed thresholds make every repeat of the same work allocate alike.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        ok = (libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
              and libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))
    except (OSError, AttributeError):  # not glibc
        ok = False
    return f"mmap_threshold={MMAP_THRESHOLD},trim_threshold={TRIM_THRESHOLD}" if ok else "default"


def environment(malloc: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas_id = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "blas_threads": os.environ[THREAD_VARS[0]],
        "nproc": NPROC,
        "malloc": malloc,
        "machine": platform.machine(),
    }


def report(result, meaning) -> dict:
    """Print one workload's numbers; returns its JSON metrics."""
    import workloads

    w = result.workload
    print(f"# {w}: " + ", ".join(f"{k}={v}" for k, v in result.samples.items()))
    if meaning:
        print(f"# {w}: throughput_per_s = {meaning[0]}")
        print(f"# {w}: latency_*_ms = {meaning[1]}")
        print(f"# {w}: throughput_per_ref = throughput_per_s x ref_ms / 1000, "
              "latency_p50_ref = latency_p50_ms / ref_ms (ref_ms: the reference kernel)")
    targets = {name: (on, moves) for name, _, on, moves in workloads.PER_LAYER}
    out = {}
    for name, value in result.metrics.items():
        unit = result.units[name]
        note = ""
        if name in targets:
            note = f"  [measured on {targets[name][0]}; moves {targets[name][1]}]"
        print(f"{w:9s} {name:40s} {value:14.6g} {unit}{note}")
        out[name] = {"value": value, "unit": unit}
    for name, (value, unit) in result.info.items():
        print(f"{w:9s} {name:40s} {value:14.6g} {unit}  [printed, not gated]")
    share = result.counter.failed / max(1, result.counter.attempted)
    print(f"{w:9s} {'failed_ops_share':40s} {share:14.6g} share  "
          f"[{result.counter.failed} of {result.counter.attempted} operations]")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "infer", "interact", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (REPO / "src" / "gridpose" / "__init__.py").is_file():
        print(f"error: no gridpose sources under {REPO / 'src'}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2

    cap_blas_threads()
    malloc = fix_malloc_thresholds()
    sys.path[:0] = [str(REPO / "src"), str(BENCH_DIR)]
    import workloads

    env = environment(malloc)
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# run: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} preset=toy")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    work = REPO / ".bench_work" / f"run-{os.getpid()}"
    results = []
    try:
        for name in names:
            results.append(workloads.run_workload(name, args.seed, args.seconds,
                                                  bool(args.trace), work / name))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (REPO / ".bench_work").rmdir()
        except OSError:  # another run still uses it
            pass

    metrics = {}
    for result in results:
        shown = report(result, None if args.trace else workloads.MEANING[result.workload])
        if args.workload == "all":
            shown = {f"{result.workload}.{k}": v for k, v in shown.items()}
        metrics.update(shown)
    correct = all(r.correct for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.counter.attempted for r in results),
        "failed": sum(r.counter.failed for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
