"""Engine speed benchmark: columnar vs batched kernel vs reference loop.

Standalone script (not a pytest benchmark) so CI can run it as a perf
smoke test::

    PYTHONPATH=src python benchmarks/bench_engine_speed.py --quick --check

Measures, on a 403.gcc-like trace at the experiment geometry (64 sets x
16 ways):

- accesses/second for LRU and PDP under all three engines (reference,
  fast, and the columnar vector tier; acceptance bars are >= 3x
  fast-vs-reference on the 500K LRU run and >= 5x vector-vs-the-committed
  fast baseline for PDP);
- an 8-point static-PD sweep four ways: serial with the reference
  engine (the pre-fast-path pipeline), serial with the batched kernel,
  serial with the vector engine, and the parallel runner. On a
  single-CPU host the parallel runner falls back to serial and only the
  engine speedup shows; on multicore hosts the worker scaling appears
  on top of it.

``--check`` exits non-zero if the fast or vector engine is slower than
the reference for any measured policy. ``--profile [N]`` additionally
runs each engine x policy cell once under cProfile and prints the top N
functions by cumulative time (default 15) to stderr — the standing tool
for hot-spot hunts. Results land in ``BENCH_engine.json`` at the repo
root (override with ``--out``), wrapped in the canonical benchmark
schema of :mod:`repro.obs.bench` (machine fingerprint, git SHA,
``engine/policy`` throughput map, peak RSS); ``--trajectory FILE``
additionally appends the record to the JSONL perf-trajectory file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.pdp_policy import PDPPolicy  # noqa: E402
from repro.experiments.common import EXPERIMENT_GEOMETRY, TIMING  # noqa: E402
from repro.obs.bench import append_trajectory, canonical_record  # noqa: E402
from repro.policies.lru import LRUPolicy  # noqa: E402
from repro.sim.runner import sweep_static_pd  # noqa: E402
from repro.sim.single_core import run_llc  # noqa: E402
from repro.workloads.spec_like import make_benchmark_trace  # noqa: E402

BENCHMARK = "403.gcc"
PD_GRID = list(range(16, 144, 16))  # 8 sweep points
ENGINES = ("reference", "fast", "vector")


def _timed(func, *args, **kwargs):
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - start


def _engine_pair(trace, factory, repeats: int) -> dict:
    """Best-of-``repeats`` accesses/second for every engine tier."""
    times = {engine: float("inf") for engine in ENGINES}
    results = {}
    for _ in range(repeats):
        for engine in ENGINES:
            result, elapsed = _timed(
                run_llc, trace, factory(), EXPERIMENT_GEOMETRY,
                timing=TIMING, engine=engine,
            )
            times[engine] = min(times[engine], elapsed)
            results[engine] = result
    for engine in ENGINES[1:]:
        assert (
            results[engine].hits == results["reference"].hits
            and results[engine].misses == results["reference"].misses
        ), f"{engine} engine diverged from reference"
    n = len(trace)
    report = {"accesses": n}
    for engine in ENGINES:
        report[f"{engine}_seconds"] = round(times[engine], 4)
        report[f"{engine}_accesses_per_sec"] = round(n / times[engine])
    report["speedup"] = round(times["reference"] / times["fast"], 2)
    report["vector_speedup"] = round(times["reference"] / times["vector"], 2)
    return report


def _sweep_triple(trace, workers: int, repeats: int) -> dict:
    """The 8-point PD sweep: serial per engine vs the parallel runner
    (which defaults to the vector engine)."""
    serial_ref = serial_fast = serial_vector = parallel = float("inf")
    for _ in range(repeats):
        _, t = _timed(
            sweep_static_pd, trace, EXPERIMENT_GEOMETRY, PD_GRID, engine="reference"
        )
        serial_ref = min(serial_ref, t)
        _, t = _timed(
            sweep_static_pd, trace, EXPERIMENT_GEOMETRY, PD_GRID, engine="fast"
        )
        serial_fast = min(serial_fast, t)
        _, t = _timed(sweep_static_pd, trace, EXPERIMENT_GEOMETRY, PD_GRID)
        serial_vector = min(serial_vector, t)
        _, t = _timed(
            sweep_static_pd,
            trace,
            EXPERIMENT_GEOMETRY,
            PD_GRID,
            max_workers=workers,
        )
        parallel = min(parallel, t)
    return {
        "grid_points": len(PD_GRID),
        "workers": workers,
        "serial_reference_seconds": round(serial_ref, 4),
        "serial_fast_seconds": round(serial_fast, 4),
        "serial_vector_seconds": round(serial_vector, 4),
        "parallel_seconds": round(parallel, 4),
        "parallel_speedup_vs_serial_reference": round(serial_ref / parallel, 2),
        "parallel_speedup_vs_serial_fast": round(serial_fast / parallel, 2),
        "parallel_speedup_vs_serial_vector": round(serial_vector / parallel, 2),
    }


def profile_cells(length: int, top: int) -> None:
    """One cProfile pass per engine x policy cell, top-N by cumulative.

    Prints to stderr so ``--out -`` pipelines keep a parseable stdout.
    """
    import cProfile
    import pstats

    trace = make_benchmark_trace(
        BENCHMARK, length=length, num_sets=EXPERIMENT_GEOMETRY.num_sets
    )
    kernels = {
        "lru": LRUPolicy,
        "pdp": lambda: PDPPolicy(recompute_interval=8192),
    }
    for name, factory in kernels.items():
        for engine in ENGINES:
            profiler = cProfile.Profile()
            profiler.enable()
            run_llc(
                trace, factory(), EXPERIMENT_GEOMETRY,
                timing=TIMING, engine=engine,
            )
            profiler.disable()
            print(
                f"\n=== profile: engine={engine} policy={name} "
                f"(top {top} by cumulative time) ===",
                file=sys.stderr,
            )
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(top)


def run_benchmark(length: int, repeats: int, workers: int) -> dict:
    trace = make_benchmark_trace(
        BENCHMARK, length=length, num_sets=EXPERIMENT_GEOMETRY.num_sets
    )
    report = {
        "benchmark": BENCHMARK,
        "geometry": "64 sets x 16 ways",
        "trace_length": length,
        "cpu_count": os.cpu_count(),
        "kernels": {
            "lru": _engine_pair(trace, LRUPolicy, repeats),
            "pdp": _engine_pair(
                trace, lambda: PDPPolicy(recompute_interval=8192), repeats
            ),
        },
        "sweep": _sweep_triple(trace, workers, repeats),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small trace, single repeat (CI smoke mode)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if the fast engine is slower than the reference",
    )
    parser.add_argument(
        "--length", type=int, default=None,
        help="trace length (default 500000, or 50000 with --quick)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="parallel sweep workers (default: CPU count)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default BENCH_engine.json at the repo root; "
        "'-' skips writing)",
    )
    parser.add_argument(
        "--trajectory", default=None,
        help="also append the canonical record to this JSONL trajectory file",
    )
    parser.add_argument(
        "--profile", type=int, nargs="?", const=15, default=None,
        metavar="N",
        help="run each engine x policy cell once under cProfile and print "
        "the top N functions by cumulative time (default 15) to stderr",
    )
    args = parser.parse_args(argv)

    length = args.length or (50_000 if args.quick else 500_000)
    repeats = 1 if args.quick else 3
    workers = args.workers or (os.cpu_count() or 1)
    report = run_benchmark(length, repeats, workers)
    record = canonical_record("engine", report)

    print(json.dumps(report, indent=2))
    if args.out != "-":
        out = Path(args.out) if args.out else (
            Path(__file__).resolve().parent.parent / "BENCH_engine.json"
        )
        out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"[written to {out}]", file=sys.stderr)
    if args.trajectory:
        append_trajectory(record, args.trajectory)
        print(f"[appended to {args.trajectory}]", file=sys.stderr)

    if args.profile is not None:
        profile_cells(length, max(1, args.profile))

    if args.check:
        slow = [
            f"{name}:{label}"
            for name, pair in report["kernels"].items()
            for label, key in (("fast", "speedup"), ("vector", "vector_speedup"))
            if pair[key] < 1.0
        ]
        if slow:
            print(f"FAIL: engine slower than reference for {slow}",
                  file=sys.stderr)
            return 1
        print("CHECK OK: fast and vector engines >= reference for all policies",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
