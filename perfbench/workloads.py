"""The benchmark's two workloads: what each sets up, runs and checks.

Each workload is a closed loop with one client and one job in flight.
An *iteration* is one cold user job: ``setup`` (timed as ``setup_s``),
then ``run`` (timed as ``run_s``); ``run.py`` repeats iterations for the
run's measuring time and reports medians. Everything else happens
outside those two intervals: ``finish`` (digests, manifest scan),
``check`` (every returned cell against ``engine="reference"``) and, in a
traced run, ``probe`` — serial calls that give each layer its own number.

Layers are timed from outside, around calls into their public
functions; nothing inside ``src/repro`` is patched. Every iteration of a
run uses the run's seed, so all iterations simulate the same trace and
one reference computation per run checks them all.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

from checks import (
    reference_shared,
    reference_single,
    shared_stats,
    single_stats,
    trace_digest,
)

from repro.core.pdp_policy import PDPPolicy
from repro.memory.cache import CacheGeometry
from repro.memory.timing import TimingModel
from repro.partitioning.pd_partition import PDPartitionPolicy
from repro.partitioning.pipp import PIPPPolicy
from repro.partitioning.ucp import UCPPolicy
from repro.policies.lip_bip_dip import DIPPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.rrip import DRRIPPolicy
from repro.policies.ta_drrip import TADRRIPPolicy
from repro.sim.multi_core import run_shared_llc, single_thread_baselines
from repro.sim.parallel import run_matrix, run_mix_matrix
from repro.sim.single_core import run_llc
from repro.traces.trace import Trace
from repro.workloads.mixes import generate_mixes
from repro.workloads.spec_like import make_benchmark_trace

MB = 1024 * 1024

#: The experiments' scaled LLC (64 sets x 16 ways) and timing model.
GEOMETRY = CacheGeometry(num_sets=64, ways=16)
TIMING = TimingModel()


@dataclass
class Iteration:
    """One cold job: its two timed intervals and what it returned."""

    traced: bool = False
    setup_s: float = 0.0
    run_s: float = 0.0
    #: LLC accesses the kernels simulated during ``run_s``.
    accesses: int = 0
    #: {cell key: statistics}, compared against the reference engine.
    cells: dict = field(default_factory=dict)
    #: Identifies the simulated input; must match the checked one.
    digest: str | None = None
    #: Layer numbers measured inside the iteration (traced runs only).
    layer: dict = field(default_factory=dict)
    #: The daemon's job records, in submission order (service_resume).
    jobs: list = field(default_factory=list)
    #: One sub-iteration per part of a composite job (sweeps).
    parts: list = field(default_factory=list)
    error: str | None = None


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def traced_median(iterations: list[Iteration], key: str) -> float:
    return median(it.layer[key] for it in iterations if it.traced and key in it.layer)


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def mismatches(cells: dict, expected: dict) -> int:
    """Expected cells that are missing from, or differ in, ``cells``."""
    return sum(1 for key, stats in expected.items() if cells.get(key) != stats)


class _GridWatch:
    """``on_event`` callback for traced grids: the first finished cell
    and any serial-fallback warning (the grid then ran on one worker)."""

    def __init__(self) -> None:
        self.start = perf_counter()
        self.first_result_s: float | None = None
        self.fell_back = False

    def __call__(self, event) -> None:
        if event.kind == "finished" and self.first_result_s is None:
            self.first_result_s = perf_counter() - self.start
        elif event.kind == "warning":
            self.fell_back = True


def kernel_probe(trace, factories: dict, spans, window_size=None) -> dict:
    """Every cell run serially through ``run_llc`` (vector engine):
    ``memory.kernel_s`` and accesses per second per policy group."""
    busy = dict.fromkeys(KERNEL_GROUPS, 0.0)
    done = dict.fromkeys(KERNEL_GROUPS, 0)
    for key, factory in factories.items():
        group = kernel_group(key)
        with spans.span("memory.run_llc"):
            start = perf_counter()
            run_llc(trace, factory(), GEOMETRY, timing=TIMING, window_size=window_size)
            busy[group] += perf_counter() - start
        done[group] += len(trace)
    out = {"memory.kernel_s": sum(busy.values())}
    for group in KERNEL_GROUPS:
        out[f"memory.accesses_per_s.{group}"] = rate(done[group], busy[group])
    return out


KERNEL_GROUPS = ("pdp-static", "pdp-dynamic", "lru", "dip", "drrip")


def kernel_group(key: str) -> str:
    """The ``memory.accesses_per_s.<group>`` a cell key belongs to."""
    if key.startswith("pd"):
        return "pdp-dynamic" if key.startswith("pdp-") else "pdp-static"
    return key


# -- sweeps, first part: Fig. 4/10's pooled grid --------------------------

#: Fig. 4's static-PD grid (associativity .. d_max, step 16).
STATIC_PDS = tuple(range(16, 257, 16))


def pd_sweep_factories() -> dict:
    """Fig. 4's SPDP-B points plus Fig. 10's LRU, DIP, DRRIP and PDP-8."""
    factories = {
        f"pd{pd}": partial(PDPPolicy, static_pd=pd, bypass=True) for pd in STATIC_PDS
    }
    factories.update(
        {
            "lru": LRUPolicy,
            "dip": DIPPolicy,
            "drrip": DRRIPPolicy,
            "pdp-8": partial(PDPPolicy, n_c=8, recompute_interval=4096),
        }
    )
    return factories


class PdSweep:
    """One 403.gcc-like trace through ``run_matrix`` on two workers."""

    benchmark = "403.gcc"
    #: Sized, like the mix and the service jobs, so that a run's medians
    #: are taken over about a dozen jobs.
    length = 100_000
    workers = 2

    def __init__(self) -> None:
        self.factories = pd_sweep_factories()
        self.cells_per_iteration = len(self.factories)
        self.trace = None

    def setup(self, seed: int, workdir: Path, spans):
        with spans.span("workloads.make_benchmark_trace"):
            return make_benchmark_trace(
                self.benchmark, length=self.length, num_sets=GEOMETRY.num_sets, seed=seed
            )

    def run(self, trace, spans, it: Iteration) -> None:
        watch = _GridWatch() if spans.enabled else None
        with spans.span("sim.parallel.run_matrix"):
            results = run_matrix(
                trace,
                self.factories,
                GEOMETRY,
                timing=TIMING,
                max_workers=self.workers,
                engine="vector",
                on_event=watch,
            )
        it.accesses = len(trace) * len(self.factories)
        it.cells = {key: single_stats(result) for key, result in results.items()}
        if watch is not None:
            it.layer["grid_s"] = perf_counter() - watch.start
            it.layer["first_result_s"] = watch.first_result_s or it.layer["grid_s"]
            it.layer["workers_effective"] = 1 if watch.fell_back else self.workers

    def finish(self, trace, it: Iteration) -> None:
        it.digest = trace_digest(trace)
        if self.trace is None:
            self.trace = trace

    def check(self, iterations: list[Iteration]) -> int:
        """Failed cells over ``iterations`` (all completed)."""
        digest = trace_digest(self.trace)
        expected = reference_single(self.trace, self.factories, GEOMETRY)
        return sum(
            mismatches(it.cells, expected) if it.digest == digest else len(expected)
            for it in iterations
        )

    def probe(self, iterations: list[Iteration], workdir: Path, spans) -> dict:
        trace = self.trace
        path = workdir / "grid-trace.trz"
        with spans.span("traces.Trace.save"):
            start = perf_counter()
            trace.save(path)
            pack_s = perf_counter() - start
        with spans.span("traces.Trace.load"):
            start = perf_counter()
            Trace.load(path)
            load_s = perf_counter() - start
        pack_mb = path.stat().st_size / MB
        path.unlink()
        kernel = kernel_probe(trace, self.factories, spans)
        grid_s = traced_median(iterations, "grid_s")
        workers = min(
            (it.layer["workers_effective"] for it in iterations if it.traced),
            default=self.workers,
        )
        return {
            "traces.pack_s": pack_s,
            "traces.pack_mb": pack_mb,
            "traces.load_s": load_s,
            "sim.parallel.grid_s": grid_s,
            "sim.parallel.first_result_s": traced_median(iterations, "first_result_s"),
            "sim.parallel.workers_effective": workers,
            "sim.parallel.dispatch_s": grid_s - pack_s - kernel["memory.kernel_s"] / workers,
            **kernel,
        }


# -- sweeps, second part: Fig. 12's shared-LLC grid -----------------------

#: Fig. 12's default mix composition (``run_fig12(seed=7)``): its first
#: 4-core mix. The composition is fixed so every seed runs the same
#: benchmarks; ``--seed`` drives the per-thread trace generation.
MIX_COMPOSITION_SEED = 7
CORES = 4
#: One mix at half fig12's 20K per thread: the per-access kernels are
#: pure Python, the part of a job the host's speed swings move most,
#: so they are kept to about a fifth of a ``sweeps`` job.
NUM_MIXES = 1
MIX_LENGTH = 10_000
#: Fig. 12's shared LLC: 16 sets per core x 16 ways.
SHARED_GEOMETRY = CacheGeometry(num_sets=16 * CORES, ways=16)

#: Grid key -> metric suffix.
SHARED_POLICIES = {
    "TA-DRRIP": "ta-drrip",
    "UCP": "ucp",
    "PIPP": "pipp",
    "PDP": "pd-partition",
}


def shared_mix_factories() -> dict:
    """Fig. 12's baseline and partitioning policies."""
    return {
        "TA-DRRIP": partial(TADRRIPPolicy, num_threads=CORES),
        "UCP": partial(UCPPolicy, num_threads=CORES),
        "PIPP": partial(PIPPPolicy, num_threads=CORES),
        "PDP": partial(
            PDPartitionPolicy,
            num_threads=CORES,
            recompute_interval=8192,
            sampler_mode="full",
        ),
    }


def interleaved_length(traces: list) -> int:
    """Accesses one shared-LLC run simulates: the round-robin interleave
    runs until the longest thread has finished once."""
    return max(len(trace) for trace in traces) * len(traces)


def mixes_digest(mixes: dict) -> str:
    return "|".join(trace_digest(trace) for traces in mixes.values() for trace in traces)


class SharedMix:
    """Fig. 12 at 4 cores: stand-alone baselines, then the serial grid."""

    def __init__(self) -> None:
        self.factories = shared_mix_factories()
        self.mixes = generate_mixes(NUM_MIXES, cores=CORES, seed=MIX_COMPOSITION_SEED)
        self.cells_per_iteration = NUM_MIXES * len(self.factories)
        self.traces = None
        self.singles = None

    def setup(self, seed: int, workdir: Path, spans):
        # The per-slot call make_mix_traces makes, with the slot seeds
        # drawn from the run seed (make_mix_traces pins 1000 + 97 * slot).
        with spans.span("workloads.make_benchmark_trace"):
            return {
                mix.name: [
                    make_benchmark_trace(
                        name,
                        length=MIX_LENGTH,
                        num_sets=SHARED_GEOMETRY.num_sets,
                        seed=seed * 1000 + 97 * slot,
                    )
                    for slot, name in enumerate(mix.benchmarks)
                ]
                for mix in self.mixes
            }

    def run(self, mixes, spans, it: Iteration) -> None:
        start = perf_counter()
        with spans.span("sim.multi_core.single_thread_baselines"):
            singles = {
                name: single_thread_baselines(
                    traces, SHARED_GEOMETRY, timing=TIMING, engine="fast"
                )
                for name, traces in mixes.items()
            }
        baselines_s = perf_counter() - start
        with spans.span("sim.parallel.run_mix_matrix"):
            grid = run_mix_matrix(
                mixes,
                self.factories,
                SHARED_GEOMETRY,
                timing=TIMING,
                singles=singles,
                max_workers=1,
                engine="fast",
            )
        it.accesses = sum(
            sum(len(trace) for trace in traces)
            + interleaved_length(traces) * len(self.factories)
            for traces in mixes.values()
        )
        it.cells = {key: shared_stats(result) for key, result in grid.items()}
        it.cells.update({(name, "baselines"): tuple(ipcs) for name, ipcs in singles.items()})
        if spans.enabled:
            it.layer["baselines_s"] = baselines_s

    def finish(self, mixes, it: Iteration) -> None:
        it.digest = mixes_digest(mixes)
        if self.traces is None:
            self.traces = mixes
            self.singles = {name: list(it.cells[(name, "baselines")]) for name in mixes}

    def check(self, iterations: list[Iteration]) -> int:
        """Failed cells; a cell also fails when its mix's stand-alone
        baseline IPCs differ from the reference engine's."""
        digest = mixes_digest(self.traces)
        cells, baselines = reference_shared(
            self.traces, self.factories, SHARED_GEOMETRY, TIMING, self.singles
        )
        expected = {key: (stats, baselines[key[0]]) for key, stats in cells.items()}
        failed = 0
        for it in iterations:
            if it.digest != digest:
                failed += len(expected)
                continue
            got = {
                (mix_key, policy_key): (stats, it.cells.get((mix_key, "baselines")))
                for (mix_key, policy_key), stats in it.cells.items()
                if policy_key != "baselines"
            }
            failed += mismatches(got, expected)
        return failed

    def probe(self, iterations: list[Iteration], workdir: Path, spans) -> dict:
        busy = dict.fromkeys(SHARED_POLICIES.values(), 0.0)
        done = dict.fromkeys(SHARED_POLICIES.values(), 0)
        for mix_key, traces in self.traces.items():
            for policy_key, factory in self.factories.items():
                label = SHARED_POLICIES[policy_key]
                with spans.span("sim.multi_core.run_shared_llc"):
                    start = perf_counter()
                    run_shared_llc(
                        traces,
                        factory(),
                        SHARED_GEOMETRY,
                        timing=TIMING,
                        singles=self.singles[mix_key],
                        name=mix_key,
                        engine="fast",
                    )
                    busy[label] += perf_counter() - start
                done[label] += interleaved_length(traces)
        out = {"sim.multi_core.baselines_s": traced_median(iterations, "baselines_s")}
        for label in SHARED_POLICIES.values():
            out[f"sim.multi_core.accesses_per_s.{label}"] = rate(done[label], busy[label])
        return out


# -- sweeps: both parts in one job ----------------------------------------


class Sweeps:
    """The figure sweeps in one job: Fig. 4/10's pooled grid
    (:class:`PdSweep`), then Fig. 12's serial shared-LLC grid
    (:class:`SharedMix`). Each part keeps its own cells and layer
    numbers in a sub-iteration; ``sim.parallel`` metrics are the pooled
    grid's."""

    def __init__(self) -> None:
        self.grid = PdSweep()
        self.mix = SharedMix()
        self.cells_per_iteration = self.grid.cells_per_iteration + self.mix.cells_per_iteration

    def setup(self, seed: int, workdir: Path, spans):
        return self.grid.setup(seed, workdir, spans), self.mix.setup(seed, workdir, spans)

    def run(self, state, spans, it: Iteration) -> None:
        it.parts = [Iteration(traced=it.traced), Iteration(traced=it.traced)]
        self.grid.run(state[0], spans, it.parts[0])
        self.mix.run(state[1], spans, it.parts[1])
        it.accesses = sum(part.accesses for part in it.parts)

    def finish(self, state, it: Iteration) -> None:
        self.grid.finish(state[0], it.parts[0])
        self.mix.finish(state[1], it.parts[1])

    def teardown(self, state) -> None:
        pass

    def check(self, iterations: list[Iteration]) -> int:
        return self.grid.check([it.parts[0] for it in iterations]) + self.mix.check(
            [it.parts[1] for it in iterations]
        )

    def probe(self, iterations: list[Iteration], workdir: Path, spans) -> dict:
        mix = self.mix.probe([it.parts[1] for it in iterations], workdir, spans)
        out = {**mix, **self.grid.probe([it.parts[0] for it in iterations], workdir, spans)}
        # Trace generation is the whole job's set-up: both parts' traces.
        generated = len(self.grid.trace) + sum(
            len(trace) for traces in self.mix.traces.values() for trace in traces
        )
        gen_s = median(it.setup_s for it in iterations if it.traced)
        out["workloads.gen_s"] = gen_s
        out["workloads.gen_accesses_per_s"] = rate(generated, gen_s)
        return out


# -- service_resume --------------------------------------------------------

SERVICE_BENCHMARK = "436.cactusADM"
#: Sized so one job sequence takes about two seconds and a run's
#: medians are taken over many of them.
SERVICE_LENGTH = 50_000
SERVICE_WINDOW = 10_000
COLD_PDS = tuple(range(16, 129, 16))
ALL_PDS = COLD_PDS + tuple(range(144, 193, 16))
BASE_POLICIES = ("lru", "drrip", "dip")
NAMESPACE = "bench"

#: (job, static PDs, expected (ran, skipped)) of the three jobs.
SERVICE_JOBS = (
    ("cold", COLD_PDS, (11, 0)),
    ("extend", ALL_PDS, (4, 11)),
    ("resume", ALL_PDS, (0, 15)),
)


def service_spec(seed: int, pds: tuple) -> dict:
    """A matrix spec: static PDs, each under its own cell key, plus the
    three baseline policies."""
    policies = [{"key": f"pd{pd}", "name": "pdp", "kwargs": {"static_pd": pd}} for pd in pds]
    return {
        "kind": "matrix",
        "namespace": NAMESPACE,
        "benchmark": SERVICE_BENCHMARK,
        "length": SERVICE_LENGTH,
        "seed": seed,
        "policies": policies + list(BASE_POLICIES),
        "num_sets": GEOMETRY.num_sets,
        "ways": GEOMETRY.ways,
        "engine": "vector",
        "workers": 1,
        "window_size": SERVICE_WINDOW,
    }


@dataclass
class Daemon:
    """A ``repro serve`` process and the one client that drives it."""

    process: subprocess.Popen
    client: object
    root: Path


class ServiceResume:
    """Cold, extend and resume jobs against a freshly started daemon."""

    def __init__(self, src_dir: Path) -> None:
        self.src_dir = src_dir
        self.cells_per_iteration = sum(len(pds) + len(BASE_POLICIES) for _, pds, _ in SERVICE_JOBS)
        self.seed: int | None = None

    def setup(self, seed: int, workdir: Path, spans) -> Daemon:
        from repro.service.protocol import ServiceClient, service_socket

        self.seed = seed
        # A path relative to the checkout root (the working directory)
        # keeps the socket under the unix-socket path-length limit.
        root = workdir / "service"
        with spans.span("service.start"):
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--root", str(root)],
                env=dict(os.environ, PYTHONPATH=str(self.src_dir)),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            daemon = Daemon(process, ServiceClient(service_socket(root), timeout=120.0), root)
            deadline = time.monotonic() + 60
            while True:
                try:
                    daemon.client.ping()
                    return daemon
                except OSError:
                    daemon.client.close()
                    if process.poll() is not None or time.monotonic() > deadline:
                        self.teardown(daemon)
                        raise RuntimeError("the sweep daemon never answered ping") from None
                    time.sleep(0.002)

    def run(self, daemon: Daemon, spans, it: Iteration) -> None:
        finals = []
        for job, pds, _ in SERVICE_JOBS:
            start = perf_counter()
            with spans.span("service.submit"):
                record = daemon.client.submit(service_spec(self.seed, pds))
            submit_s = perf_counter() - start
            with spans.span("service.watch"):
                final = None
                for message in daemon.client.watch(record["job_id"]):
                    final = message.get("done", final)
            finals.append(final)
            if spans.enabled:
                it.layer[f"submit_s.{job}"] = submit_s
                it.layer[f"job_s.{job}"] = perf_counter() - start
        with spans.span("service.jobs"):
            records = {record["job_id"]: record for record in daemon.client.jobs()}
        it.jobs = [records[final["job_id"]] for final in finals]
        it.accesses = SERVICE_LENGTH * sum(job["ran_cells"] or 0 for job in it.jobs)

    def finish(self, daemon: Daemon, it: Iteration) -> None:
        """Collect the namespace's cell statistics (and, traced, its
        manifest and event-stream sizes)."""
        from repro.obs.manifest import scan_manifests

        namespace = daemon.root / "namespaces" / NAMESPACE
        start = perf_counter()
        report = scan_manifests(namespace)
        scan_s = perf_counter() - start
        found: dict = {}
        for manifest in report.manifests:
            if manifest.kind == "llc":
                stats = manifest.stats
                found.setdefault(manifest.label, []).append(
                    (stats["hits"], stats["misses"], stats["bypasses"], stats.get("evictions", 0))
                )
        # A label written twice means a cell ran twice: never a match.
        it.cells = {label: runs[0] if len(runs) == 1 else runs for label, runs in found.items()}
        if it.traced:
            files = [path for path in namespace.iterdir() if path.is_file()]
            manifests = [path for path in files if path.suffix == ".json"]
            it.layer["obs.manifest_files"] = len(manifests)
            it.layer["obs.manifest_mb"] = sum(path.stat().st_size for path in manifests) / MB
            it.layer["obs.events_lines"] = sum(
                len(path.read_bytes().splitlines()) for path in files if path.suffix == ".jsonl"
            )
            it.layer["obs.scan_s"] = scan_s

    def teardown(self, daemon: Daemon | None) -> None:
        if daemon is None:
            return
        from repro.service.protocol import ProtocolError

        try:
            daemon.client.shutdown()
        except (OSError, ProtocolError):
            daemon.process.terminate()
        finally:
            daemon.client.close()
        try:
            daemon.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.process.kill()
            daemon.process.wait()

    def _spec(self, pds: tuple):
        from repro.service.jobs import SweepSpec

        return SweepSpec(**service_spec(self.seed, pds))

    def check(self, iterations: list[Iteration]) -> int:
        """Failed cells: each job's cells fail together unless the job
        finished with exactly its expected (ran, skipped) counts."""
        from repro.service.jobs import load_matrix_source, policy_factories

        spec = self._spec(ALL_PDS)
        expected = reference_single(
            load_matrix_source(spec), policy_factories(spec), GEOMETRY, SERVICE_WINDOW
        )
        failed = 0
        for it in iterations:
            for (_, pds, counts), job in zip(SERVICE_JOBS, it.jobs):
                keys = [f"pd{pd}" for pd in pds] + list(BASE_POLICIES)
                if job["state"] != "done" or (job["ran_cells"], job["skipped_cells"]) != counts:
                    failed += len(keys)
                else:
                    failed += mismatches(it.cells, {key: expected[key] for key in keys})
        return failed

    def probe(self, iterations: list[Iteration], workdir: Path, spans) -> dict:
        from repro.service.jobs import load_matrix_source, policy_factories

        spec = self._spec(ALL_PDS)
        gens = []
        for _ in SERVICE_JOBS:  # each job regenerates its trace
            with spans.span("workloads.load_matrix_source"):
                start = perf_counter()
                trace = load_matrix_source(spec)
                gens.append(perf_counter() - start)
        traced = [it for it in iterations if it.traced]
        jobs = [job for it in traced for job in it.jobs]
        later = [job for it in traced for job in it.jobs[1:]]
        out = {
            "workloads.gen_s": median(gens),
            "workloads.gen_accesses_per_s": rate(len(trace), median(gens)),
            "service.submit_s": median(
                it.layer[f"submit_s.{job}"] for it in traced for job, _, _ in SERVICE_JOBS
            ),
            "service.queue_wait_s": median(
                sum(job["queue_wait_s"] or 0.0 for job in it.jobs) for it in traced
            ),
            "service.runtime_s": median(
                sum(job["runtime_s"] or 0.0 for job in it.jobs) for it in traced
            ),
            "service.cells_ran": sum(job["ran_cells"] for job in jobs) / len(traced),
            "service.cells_skipped": sum(job["skipped_cells"] for job in jobs) / len(traced),
            "service.skip_frac": rate(
                sum(job["skipped_cells"] for job in later),
                sum(job["total_cells"] for job in later),
            ),
        }
        for job, _, _ in SERVICE_JOBS:
            out[f"service.job_s.{job}"] = traced_median(iterations, f"job_s.{job}")
        for key in ("obs.manifest_files", "obs.manifest_mb", "obs.events_lines", "obs.scan_s"):
            out[key] = traced_median(iterations, key)
        out.update(kernel_probe(trace, policy_factories(spec), spans, window_size=SERVICE_WINDOW))
        return out


def make_workload(name: str, src_dir: Path):
    if name == "sweeps":
        return Sweeps()
    if name == "service_resume":
        return ServiceResume(src_dir)
    raise ValueError(f"unknown workload {name!r}")
