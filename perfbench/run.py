#!/usr/bin/env python3
"""Whole-sweep benchmark of the PDP reproduction, with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run measures one workload (``sweeps`` or ``service_resume``, see
``perfbench/README.md``) in this process: it repeats cold jobs (set up,
then run) until ``--seconds`` have passed and reports medians.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates traced and untraced jobs, runs the serial layer
probes, and prints the per-layer metrics plus the span self times.
Either way every returned cell is checked against ``engine="reference"``
after the timed interval. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--workload all`` runs every workload in a
fresh process and prints a summary table.

The benchmark imports the simulator from ``src/`` next to this
directory and exits non-zero, without a result, when it is missing.
Temporary files (payload temp dirs, the daemon root, any default cache
location) live under ``.perfbench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Iterations per run, at least, whatever ``--seconds`` says.
MIN_ITERATIONS = 3

#: Environment that would make a run warm, traced or differently sized.
CLEARED_ENV = ("REPRO_TELEMETRY", "REPRO_TRACE_CACHE_DIR", "REPRO_MAX_WORKERS")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a host-drift indicator."""
    start = perf_counter()
    total = 0
    for value in range(1_500_000):
        total += value * value % 7
    return perf_counter() - start


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any reaped child (pool workers,
    the sweep daemon), whichever is larger. Linux reports KiB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def isolate(workdir: Path) -> None:
    """Keep every file the program writes inside ``workdir`` and every
    run cold: no trace cache, no telemetry, no inherited worker count."""
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None


def fresh_home(iteration_dir: Path) -> None:
    """A new, empty home and cache location for one cold job, so that a
    default on-disk cache can never carry over between jobs."""
    home = iteration_dir / "home"
    (home / ".cache").mkdir(parents=True)
    os.environ["HOME"] = str(home)
    os.environ["XDG_CACHE_HOME"] = str(home / ".cache")


def measure(args, definition: dict, workdir: Path) -> dict:
    from tracing import OFF, SpanRecorder
    from workloads import Iteration, make_workload, median

    from repro.obs.bench import machine_fingerprint

    print(f"machine: {json.dumps(machine_fingerprint(), sort_keys=True)}")
    calib = [calibrate()]
    workload = make_workload(args.workload, SRC)
    recorder = SpanRecorder() if args.trace else None
    iterations: list[Iteration] = []
    deadline = perf_counter() + args.seconds
    last = 0.0  # the previous job's wall time, set-up to teardown
    # Start another job while at least half of one still fits.
    while len(iterations) < MIN_ITERATIONS or perf_counter() + last / 2 < deadline:
        job_start = perf_counter()
        index = len(iterations)
        it = Iteration(traced=recorder is not None and index % 2 == 0)
        spans = recorder if it.traced else OFF
        iteration_dir = Path(os.path.relpath(workdir, ROOT)) / f"i{index}"
        fresh_home(iteration_dir)
        state = None
        try:
            with spans.span("job"):
                start = perf_counter()
                with spans.span("setup"):
                    state = workload.setup(args.seed, iteration_dir, spans)
                middle = perf_counter()
                with spans.span("run"):
                    workload.run(state, spans, it)
                end = perf_counter()
            it.setup_s, it.run_s = middle - start, end - middle
            workload.finish(state, it)
        except Exception:  # noqa: BLE001 — a failed job fails its cells
            it.error = traceback.format_exc()
            print(it.error, file=sys.stderr)
        finally:
            workload.teardown(state)
        iterations.append(it)
        shutil.rmtree(iteration_dir, ignore_errors=True)
        last = perf_counter() - job_start
    rss = peak_rss_mb()
    done = [it for it in iterations if it.error is None]
    attempted = workload.cells_per_iteration * len(iterations)
    failed = workload.cells_per_iteration * (len(iterations) - len(done))
    if done:
        try:
            failed += workload.check(done)
        except Exception:  # noqa: BLE001 — an unverifiable run is not correct
            print(traceback.format_exc(), file=sys.stderr)
            failed = attempted
    untraced = [it for it in done if not it.traced]
    end_to_end = {
        "setup_s": median(it.setup_s for it in untraced),
        "run_s": median(it.run_s for it in untraced),
        "accesses_per_s": median(it.accesses / it.run_s for it in untraced),
        "peak_rss_mb": rss,
        "cells_ok_frac": (attempted - failed) / attempted,
    }
    layer = {}
    if recorder is not None and done:
        layer = workload.probe(done, workdir, recorder)
        layer["trace.overhead_s"] = (
            median(it.run_s for it in done if it.traced) - end_to_end["run_s"]
        )
    calib.append(calibrate())
    layer["host.calib_s"] = median(calib)

    print(f"workload: {args.workload}  seed: {args.seed}  iterations: {len(iterations)} "
          f"({len(iterations) - len(done)} failed)  calib_s: start {calib[0]:.4f} end {calib[1]:.4f}")
    for name in ("setup_s", "run_s"):
        print(f"jobs {name}: " + " ".join(f"{getattr(it, name):.4f}{'t' if it.traced else ''}" for it in done))
    print(f"cells: attempted {attempted}  failed {failed}")
    declared = "per_layer" if args.trace else "end_to_end"
    values = layer if args.trace else end_to_end
    unknown = set(values) - {spec["name"] for spec in definition[declared]}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A layer the workload bypasses reports 0 (see layers.json "on").
    metrics = {
        spec["name"]: {"value": values.get(spec["name"], 0.0), "unit": spec["unit"]}
        for spec in definition[declared]
    }
    if args.trace:
        print_layers(metrics, args.workload)
        print_trace(recorder, end_to_end, layer, args.workload)
    else:
        print_metrics(metrics, list(metrics))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def print_metrics(metrics: dict, names: list[str]) -> None:
    for name in names:
        entry = metrics[name]
        print(f"  {name:<42} {entry['value']:>16.6g} {entry['unit']}")


def print_layers(metrics: dict, workload: str) -> None:
    """Per-layer metrics grouped as ``layers.json`` maps them, with the
    end-to-end metric each should move."""
    layers = json.loads((Path(__file__).parent / "layers.json").read_text())["layers"]
    mapped = [name for entry in layers for name in entry["metrics"]]
    if sorted(mapped) != sorted(metrics):
        raise RuntimeError("layers.json and BENCHMARK.json per_layer name different metrics")
    for entry in layers:
        exercised = any(on.split()[0] == workload for on in entry["on"])
        note = "" if exercised else "; bypassed by this workload, reported as 0"
        print(f"layer {entry['layer']} (should move: {entry['should_move']}{note})")
        print_metrics(metrics, entry["metrics"])


def print_trace(recorder, end_to_end: dict, layer: dict, workload: str) -> None:
    """Span self times, and where a traced grid's wall time went."""
    print(f"spans (trace {recorder.trace_id}): name, count, total_s, self_s")
    for name, row in sorted(recorder.self_times().items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<42} {row['count']:>5} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    grid = layer.get("sim.parallel.grid_s")
    if workload == "sweeps" and grid:
        workers = layer["sim.parallel.workers_effective"]
        parts = {
            "traces.pack_s": layer["traces.pack_s"],
            f"memory.kernel_s/{workers:g}": layer["memory.kernel_s"] / workers,
            "sim.parallel.dispatch_s": layer["sim.parallel.dispatch_s"],
        }
        print(f"grid attribution (traced grid {grid:.3f}s; untraced run_s "
              f"{end_to_end['run_s']:.3f}s):")
        for name, seconds in parts.items():
            print(f"  {name:<42} {seconds:>10.4f} s  {seconds / grid:6.1%}")
        largest = max(("traces.pack_s", f"memory.kernel_s/{workers:g}"), key=parts.get)
        print(f"  largest layer: {largest}")


def run_all(args, definition: dict) -> int:
    """Every workload in a fresh process; prints a summary table."""
    rows = []
    ok = True
    for workload in definition["workloads"]:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((workload["name"], result))
    print("summary:")
    for name, result in rows:
        for metric, entry in result["metrics"].items():
            print(f"  {name:<16} {metric:<42} {entry['value']:>16.6g} {entry['unit']}")
        print(f"  {name:<16} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, definition)
    if args.workload not in {workload["name"] for workload in definition["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"run-{os.getpid()}"
    isolate(workdir)
    try:
        result = measure(args, definition, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
