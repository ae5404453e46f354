"""Grid cells and the one executor every sweep grid runs on.

A :class:`Cell` is one simulation of a sweep grid: a policy factory run
over one trace (``kind="llc"``, :func:`repro.sim.single_core.run_llc`)
or over a mix of per-thread traces (``kind="shared_llc"``,
:func:`repro.sim.multi_core.run_shared_llc`), with its geometry, timing
model and engine. :attr:`Cell.id` is a content hash of every input that
changes the cell's result; it is recorded in the cell's manifest
(``extra["cell_id"]``) and is what the resume scheduler
(:mod:`repro.service.scheduler`) matches on.

:func:`run_cells` runs any list of cells, in parallel when possible.
Each distinct trace is written once to a packed payload in the native
compressed format (:meth:`Trace.save` / ``.trz``) and workers load each
at most once per process (a module-level memo), so a 32-point PD sweep
ships its trace a handful of times instead of re-pickling it per task.
A :class:`repro.traces.stream.TraceStream` source (an external trace
file opened via :func:`repro.traces.formats.open_trace`) is
stream-copied to its payload and each worker re-opens it as a chunked
stream, so the parallel path never materializes a huge trace either.
Factories must be picklable — module-level callables, classes, or
``functools.partial`` of those; lambdas and closures trigger the serial
fallback.

Worker count resolution (:func:`resolve_max_workers`): an explicit
``max_workers`` argument wins, then the ``REPRO_MAX_WORKERS``
environment variable, then ``os.cpu_count()``. A resolved count of 1 —
or any failure to stand up the pool (unpicklable factories, sandboxed
environments without process support) — runs the cells serially
in-process, so the executor is always safe to call. The fallback is
*loud*: it raises a :class:`RuntimeWarning`, emits a ``warning``
progress event, and the sweep manifest records ``workers_requested`` vs
``workers_effective``.

Observability: ``on_event`` receives started/finished/failed
:class:`repro.obs.progress.ProgressEvent` records, emitted from the
*parent* process as cells dispatch and complete. With a
``manifest_dir``, every cell writes its own provenance manifest (inside
the worker), all progress events land in ``events.jsonl``, and a sweep
manifest (kind ``"matrix"``, or ``"mix_matrix"`` for shared-LLC cells)
records per-task status — including failed tasks with policy, workload
and a traceback summary. Each cell's wall time is split into queue wait
and in-worker runtime (histograms in :data:`repro.obs.metrics.METRICS`)
and, with a manifest directory, written as one span per cell under a
grid root span to ``spans.jsonl``, next to a ``pack`` span covering the
payload writes (rendered by ``repro obs trace``).

Failure semantics: only *infrastructure* failures fall back to the
serial path — payload-directory / pool setup errors and a broken pool
(``BrokenProcessPool``: a worker process died). An exception raised by
the simulation itself (a policy bug surfacing as ``RuntimeError``,
``ValueError``, ...) is never masked by a serial re-run: the remaining
cells complete (their results still land in per-cell manifests), every
failure is recorded, the sweep manifest is written, and the first
failure is re-raised.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import pickle
import tempfile
import warnings
from collections.abc import Callable, Hashable, Iterable
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace
from functools import cached_property, partial
from pathlib import Path
from time import perf_counter
from types import ModuleType

from repro.memory.cache import CacheGeometry
from repro.memory.columnar import run_llc_shard
from repro.memory.timing import TimingModel
from repro.obs.manifest import Manifest, TaskFailure, fingerprint_source, trace_fingerprint
from repro.obs.manifest import git_sha as _git_sha
from repro.obs.metrics import METRICS
from repro.obs.progress import ProgressEvent, ProgressReporter
from repro.obs.spans import SpanTracer
from repro.obs.telemetry import TELEMETRY
from repro.obs.trace_log import EVENTS_FILENAME, TraceLog
from repro.sim.multi_core import run_shared_llc
from repro.sim.single_core import run_llc
from repro.traces.stream import TraceStream
from repro.traces.trace import Trace
from repro.workloads.mixes import interleave_traces

#: Environment variable overriding the default worker count.
ENV_MAX_WORKERS = "REPRO_MAX_WORKERS"

#: Per-worker-process memo of loaded trace payloads (path -> Trace or
#: re-iterable TraceStream).
_WORKER_TRACES: dict[str, Trace | TraceStream] = {}


def resolve_max_workers(max_workers: int | None = None) -> int:
    """Effective worker count: argument, else $REPRO_MAX_WORKERS, else
    ``os.cpu_count()``; always at least 1 (1 means run serially)."""
    if max_workers is None:
        env = os.environ.get(ENV_MAX_WORKERS, "").strip()
        if env:
            try:
                max_workers = int(env)
            except ValueError:
                raise ValueError(
                    f"${ENV_MAX_WORKERS} must be an integer, got {env!r}"
                ) from None
        else:
            max_workers = os.cpu_count() or 1
    return max(1, int(max_workers))


def _json_native(value) -> bool:
    """Whether ``value`` serializes to JSON exactly (finite floats,
    string dict keys, no objects)."""
    if value is None or isinstance(value, (str, int)):
        return True
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (list, tuple)):
        return all(_json_native(item) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and _json_native(item) for key, item in value.items()
        )
    return False


def describe_factory(factory: Callable[[], object]) -> dict | None:
    """The JSON-native description of a policy factory, or None.

    Nested :func:`functools.partial` layers are flattened into one
    dotted callable plus its positional and keyword arguments (outer
    keywords override inner ones, as a call would). A lambda, a closure,
    or an argument that is not JSON-native cannot be described, so the
    cell it builds has no id.
    """
    args: tuple = ()
    kwargs: dict = {}
    while isinstance(factory, partial):
        args = factory.args + args
        kwargs = {**factory.keywords, **kwargs}
        factory = factory.func
    module = getattr(factory, "__module__", None)
    qualname = getattr(factory, "__qualname__", None)
    if not module or not qualname or "<" in qualname:  # <lambda>, <locals>
        return None
    bound_to = getattr(factory, "__self__", None)
    if bound_to is not None and not isinstance(bound_to, (type, ModuleType)):
        return None  # a bound method carries its instance's state

    if not _json_native([args, kwargs]):
        return None
    return {"callable": f"{module}.{qualname}", "args": list(args), "kwargs": kwargs}


@dataclass(frozen=True, eq=False)
class Cell:
    """One simulation of a sweep grid.

    Attributes:
        key: the cell's key in the result dict; ``str(key)`` is its
            manifest label. Mix cells are keyed ``(mix, policy)`` and
            set-shard cells ``(cell key, shard)``.
        factory: zero-arg factory for a fresh policy instance.
        traces: ``(trace,)`` for an ``llc`` cell, the per-thread traces
            for a ``shared_llc`` cell.
        geometry / timing / engine / window_size: forwarded to the
            driver.
        kind: ``"llc"`` or ``"shared_llc"``.
        singles: a mix's stand-alone LRU IPCs (recomputed when None).
        name: a mix's workload name.
        shard: ``(shard, num_shards)`` to simulate only the sets with
            ``set_index % num_shards == shard``
            (:func:`repro.memory.columnar.run_llc_shard`); the result is
            a mergeable part and no cell manifest is written.
    """

    key: Hashable
    factory: Callable[[], object]
    traces: tuple
    geometry: CacheGeometry
    timing: TimingModel | None = None
    engine: str = "vector"
    window_size: int | None = None
    kind: str = "llc"
    singles: tuple | None = None
    name: str | None = None
    shard: tuple[int, int] | None = None

    @property
    def workload(self) -> str:
        """The workload name: a mix's name, else the trace's."""
        return self.name if self.name is not None else self.traces[0].name

    @property
    def policy(self) -> str:
        """The policy-axis part of the key (for failure records)."""
        if self.kind == "shared_llc":
            return str(self.key[1])
        return str(self.key if self.shard is None else self.key[0])

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the simulated trace (for a mix, of its
        round-robin interleaved trace, as ``run_shared_llc`` records)."""
        if self.kind == "shared_llc":
            return trace_fingerprint(interleave_traces(list(self.traces))[0])
        return fingerprint_source(self.traces[0])

    @cached_property
    def id(self) -> str | None:
        """The cell's resume identity, or None when its factory cannot
        be described (see :func:`describe_factory`).

        A sha256 over canonical JSON of the kind, the factory with its
        arguments, the geometry, the timing model (None hashes as the
        default model), the trace fingerprint, and — when given — a
        mix's name and explicit singles and a shard. The engine (engines
        are bit-identical), the key, the git SHA and ``window_size``
        (matched separately by the scheduler) stay out.
        """
        factory = describe_factory(self.factory)
        if factory is None:
            return None
        identity = {
            "kind": self.kind,
            "factory": factory,
            "geometry": asdict(self.geometry),
            "timing": asdict(self.timing or TimingModel()),
            "trace": self.fingerprint,
            "name": self.name,
        }
        if self.singles is not None:
            identity["singles"] = list(self.singles)
        if self.shard is not None:
            identity["shard"] = list(self.shard)
        canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def identify(cells: Iterable[Cell]) -> list[str | None]:
    """Every cell's id, fingerprinting each distinct trace (or mix)
    once across ``cells``."""
    seen: dict[tuple, str] = {}
    ids = []
    for cell in cells:
        token = (cell.kind, *map(id, cell.traces))
        if token in seen:
            cell.__dict__.setdefault("fingerprint", seen[token])
        else:
            seen[token] = cell.fingerprint
        ids.append(cell.id)
    return ids


def _execute(cell: Cell, traces: tuple, manifest_dir: str | None, meta: dict | None):
    """Run one cell over ``traces`` (its own, or loaded payloads);
    ``meta`` carries its id into the cell manifest."""
    policy = cell.factory()
    if cell.shard is not None:
        (trace,) = traces
        return run_llc_shard(
            trace, policy, cell.geometry, *cell.shard, len(trace),
            window_size=cell.window_size,
        )
    driver = dict(
        timing=cell.timing,
        engine=cell.engine,
        manifest_dir=manifest_dir,
        run_label=str(cell.key),
        run_meta=meta,
        window_size=cell.window_size,
    )
    if cell.kind == "shared_llc":
        singles = None if cell.singles is None else list(cell.singles)
        return run_shared_llc(
            list(traces), policy, cell.geometry, singles=singles, name=cell.name, **driver
        )
    (trace,) = traces
    return run_llc(trace, policy, cell.geometry, **driver)


def _load_packed_trace(path: str, as_stream: bool) -> Trace | TraceStream:
    """Load (and per-process memoize) one packed trace payload.

    ``as_stream=True`` opens the payload as a re-iterable chunked
    :class:`TraceStream` instead of materializing it — the worker-side
    half of the streaming parallel path.
    """
    trace = _WORKER_TRACES.get(path)
    if trace is None:
        if as_stream:
            from repro.traces.formats import open_trace

            trace = open_trace(path, format="native")
        else:
            trace = Trace.load(path)
        _WORKER_TRACES[path] = trace
    return trace


def _run_cell_task(cell: Cell, manifest_dir: str | None, meta: dict | None):
    """Worker entry: one cell whose ``traces`` are ``(path, as_stream)``
    payload references.

    Workers are reused across tasks (and fork inherits the parent's
    accumulated state), so the telemetry and metrics sinks are reset
    first; the task's snapshots and in-worker runtime ship back with
    the result for the parent to merge.
    """
    if TELEMETRY.enabled:
        TELEMETRY.reset()
    if METRICS.enabled:
        METRICS.reset()
    start = perf_counter()
    traces = tuple(_load_packed_trace(path, stream) for path, stream in cell.traces)
    result = _execute(cell, traces, manifest_dir, meta)
    return result, {
        "telemetry": TELEMETRY.snapshot() if TELEMETRY.enabled else None,
        "metrics": METRICS.snapshot() if METRICS.enabled else None,
        "runtime_s": perf_counter() - start,
    }


class _GridObserver:
    """Per-grid progress/event-log/failure/latency bookkeeping.

    Wraps a :class:`ProgressReporter` (teeing every event into the
    manifest directory's ``events.jsonl`` when one is configured) and
    accumulates per-task status plus :class:`TaskFailure` records for
    the sweep manifest.

    It is also the grid's latency observer: dispatch times are
    remembered so each completion can be split into queue wait (wall
    time minus in-worker runtime) and runtime, recorded into the
    ``grid.cell_queue_wait_s`` / ``grid.cell_runtime_s`` histograms of
    :data:`repro.obs.metrics.METRICS` and — when a manifest directory is
    configured — emitted as one per-cell span (child of the grid's root
    span) in ``spans.jsonl``.
    """

    def __init__(
        self,
        total: int,
        on_event: Callable[[ProgressEvent], None] | None,
        manifest_dir: Path | None,
        label: str,
    ) -> None:
        self._log = (
            TraceLog(manifest_dir / EVENTS_FILENAME)
            if manifest_dir is not None
            else None
        )
        self.statuses: dict[str, str] = {}
        self.failures: list[TaskFailure] = []
        self.reporter = ProgressReporter(total, on_event=self._dispatch, label=label)
        self._on_event = on_event
        self._dispatched: dict[str, float] = {}
        self.tracer = SpanTracer.for_dir(manifest_dir)
        # Root span for the whole grid: entering it makes every span
        # emitted below a child of it (and, transitively, of any
        # scheduler span already active); close() exits and records it.
        self._grid_span = self.tracer.span(label, cells=total)
        self._grid_span.__enter__()

    def _dispatch(self, event: ProgressEvent) -> None:
        """Tee one event into the JSONL log and the user callback."""
        if self._log is not None:
            self._log.emit_progress(event)
        if self._on_event is not None:
            self._on_event(event)

    def started(self, cell: Cell) -> None:
        """Record and broadcast task dispatch."""
        self.statuses[str(cell.key)] = "started"
        self._dispatched[str(cell.key)] = perf_counter()
        self.reporter.started(cell.key)

    def _observe_cell(self, cell: Cell, status: str, runtime_s: float | None) -> None:
        """Record one completed cell's latency split and span.

        Wall time runs dispatch to completion; ``runtime_s`` is the
        in-worker (or in-process) execution time when known, and their
        difference is the time the task spent queued behind the pool.
        """
        dispatched = self._dispatched.pop(str(cell.key), None)
        if dispatched is None:
            return
        wall = perf_counter() - dispatched
        runtime = wall if runtime_s is None else min(runtime_s, wall)
        queue_wait = max(0.0, wall - runtime)
        if METRICS.enabled:
            METRICS.observe("grid.cell_runtime_s", runtime)
            METRICS.observe("grid.cell_queue_wait_s", queue_wait)
            METRICS.inc(f"grid.cells_{status}")
        self.tracer.emit(
            f"cell:{cell.key}",
            start_s=dispatched,
            duration_s=wall,
            attributes={
                "status": status,
                "runtime_s": runtime,
                "queue_wait_s": queue_wait,
            },
        )

    def finished(self, cell: Cell, runtime_s: float | None = None) -> None:
        """Record and broadcast successful completion."""
        self.statuses[str(cell.key)] = "finished"
        self._observe_cell(cell, "finished", runtime_s)
        self.reporter.finished(cell.key)

    def failed(self, cell: Cell, exc: BaseException) -> None:
        """Record and broadcast a task failure (kept for the manifest)."""
        self.statuses[str(cell.key)] = "failed"
        self._observe_cell(cell, "failed", None)
        self.failures.append(
            TaskFailure.from_exception(
                cell.key, exc, policy=cell.policy, workload=cell.workload
            )
        )
        self.reporter.failed(cell.key, exc)

    def warn(self, key: str, message: str) -> None:
        """Surface a degradation: a :class:`RuntimeWarning` plus a
        ``warning`` progress event (which also lands in
        ``events.jsonl``); no task status changes."""
        warnings.warn(message, RuntimeWarning, stacklevel=3)
        self.reporter.warning(key, message)

    def task_records(self) -> list[dict]:
        """JSON-ready ``{key, status}`` rows for the sweep manifest."""
        return [
            {"key": key, "status": status} for key, status in self.statuses.items()
        ]

    def close(self) -> None:
        """Finish the grid span and close the event/span logs."""
        self._grid_span.__exit__(None, None, None)
        self.tracer.close()
        if self._log is not None:
            self._log.close()


def _meta(cell: Cell, manifest_dir: str | None) -> dict | None:
    """The ``run_meta`` of a cell: its id (None when unidentifiable)
    whenever a manifest is written."""
    return None if manifest_dir is None else {"cell_id": cell.id}


def _run_serial(cells: list[Cell], manifest_dir: str | None, observer: _GridObserver):
    """Run every cell in-process; returns ``(results, failures)``.

    The grid keeps going past a failed cell so every cell's outcome is
    known (matching the pooled path).
    """
    results: dict = {}
    failures: list[tuple] = []
    for cell in cells:
        observer.started(cell)
        start = perf_counter()
        try:
            results[cell.key] = _execute(cell, cell.traces, manifest_dir, _meta(cell, manifest_dir))
        except Exception as exc:  # noqa: BLE001 — recorded, then re-raised
            failures.append((cell.key, exc))
            observer.failed(cell, exc)
        else:
            observer.finished(cell, runtime_s=perf_counter() - start)
    return results, failures


def _pack(cells: list[Cell], payload_dir: Path, tracer: SpanTracer) -> list[Cell]:
    """Write each distinct trace once; returns the cells with payload
    references in place of their traces."""
    refs: dict[int, tuple[str, bool]] = {}
    with tracer.span("pack") as span:
        for cell in cells:
            for trace in cell.traces:
                if id(trace) in refs:
                    continue
                path = str(payload_dir / f"trace{len(refs)}.trz")
                as_stream = isinstance(trace, TraceStream)
                if as_stream:
                    from repro.traces.formats import write_stream

                    write_stream(trace, path, format="native")
                else:
                    trace.save(path)
                refs[id(trace)] = (path, as_stream)
        span.set("files", len(refs))
        span.set("bytes", sum(os.path.getsize(path) for path, _ in refs.values()))
    return [
        replace(cell, traces=tuple(refs[id(trace)] for trace in cell.traces))
        for cell in cells
    ]


def _run_pooled(
    cells: list[Cell], workers: int, manifest_dir: str | None, observer: _GridObserver
):
    """Fan the cells over a process pool; ``(results, failures)``, or
    None after an infrastructure failure (payload dir / pool setup, a
    broken pool) so the caller can fall back to the serial path.

    Exceptions raised *by a cell* are collected as failures. Each
    worker's telemetry and metrics snapshots are merged into this
    process's sinks as its future completes, so counters recorded inside
    workers are not lost (the serial path records into the sinks
    directly), and its runtime feeds the observer's queue-wait split.
    """
    fork = "fork" in multiprocessing.get_all_start_methods()
    results: dict = {}
    failures: list[tuple] = []
    try:
        with tempfile.TemporaryDirectory(prefix="repro-trace-") as payload_dir:
            packed = _pack(cells, Path(payload_dir), observer.tracer)
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork") if fork else None,
            ) as pool:
                futures = {}
                for cell, task in zip(cells, packed):
                    observer.started(cell)
                    meta = _meta(cell, manifest_dir)
                    futures[pool.submit(_run_cell_task, task, manifest_dir, meta)] = cell
                for future in as_completed(futures):
                    cell = futures[future]
                    try:
                        result, obs_payload = future.result()
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:  # noqa: BLE001 — see docstring
                        failures.append((cell.key, exc))
                        observer.failed(cell, exc)
                        continue
                    results[cell.key] = result
                    if obs_payload["telemetry"] is not None:
                        TELEMETRY.merge_snapshot(obs_payload["telemetry"])
                    if obs_payload["metrics"] is not None:
                        METRICS.merge_snapshot(obs_payload["metrics"])
                    observer.finished(cell, runtime_s=obs_payload["runtime_s"])
    except (OSError, RuntimeError):
        # No usable payload dir or process pool (restricted sandbox,
        # missing /dev/shm, exhausted pids, ...), or a worker *process*
        # died (BrokenProcessPool: OOM-kill, sandbox teardown).
        return None
    return results, failures


def _length(trace) -> int:
    """Accesses in a trace (a stream's declared length, else 0)."""
    if isinstance(trace, TraceStream):
        return trace.length or 0
    return len(trace)


def _sweep_manifest(
    cells: list[Cell],
    observer: _GridObserver,
    kind: str,
    requested: int,
    effective: int,
    wall: float,
) -> Manifest:
    """The sweep-level manifest: per-task status, failures, workers."""
    whole = [cell for cell in cells if cell.shard is None or cell.shard[0] == 0]
    accesses = sum(_length(trace) for cell in whole for trace in cell.traces)
    config = {
        **asdict(cells[0].geometry),
        "workers": requested,
        "workers_requested": requested,
        "workers_effective": effective,
    }
    sharded = [cell for cell in cells if cell.shard is not None]
    if sharded:
        config["set_partitions"] = sharded[0].shard[1]
        config["sharded_cells"] = sorted({cell.policy for cell in sharded})
    workloads = list(dict.fromkeys(cell.workload for cell in cells))
    if kind == "mix_matrix":
        config["mixes"] = len(workloads)
    fingerprints = {cell.fingerprint for cell in cells}
    return Manifest(
        kind=kind,
        workload=",".join(workloads),
        policy=",".join(dict.fromkeys(cell.policy for cell in whole)),
        engine=cells[0].engine,
        config=config,
        trace_fingerprint=fingerprints.pop() if len(fingerprints) == 1 else None,
        git_sha=_git_sha(),
        wall_time_s=wall,
        accesses=accesses,
        accesses_per_sec=accesses / wall if wall > 0 else 0.0,
        tasks=observer.task_records(),
        failures=list(observer.failures),
        telemetry=TELEMETRY.snapshot() if TELEMETRY.enabled else {},
        metrics=METRICS.snapshot() if METRICS.enabled else {},
    )


def grid_kind(cells: list[Cell]) -> str:
    """The sweep-manifest kind of a cell list: ``"mix_matrix"`` when it
    holds shared-LLC cells, else ``"matrix"``."""
    return "mix_matrix" if any(cell.kind == "shared_llc" for cell in cells) else "matrix"


def run_cells(
    cells: Iterable[Cell],
    max_workers: int | None = None,
    manifest_dir: str | os.PathLike | None = None,
    on_event: Callable[[ProgressEvent], None] | None = None,
) -> dict:
    """Run a list of cells, in parallel when possible.

    Args:
        cells: the grid; keys must be unique.
        max_workers: worker processes; None resolves via
            :func:`resolve_max_workers`, 0/1 forces serial.
        manifest_dir: when set, each cell (set shards excepted) writes
            a manifest carrying its :attr:`Cell.id`, progress events
            land in ``events.jsonl``, spans in ``spans.jsonl``, and a
            sweep manifest records per-task status and failures.
        on_event: optional callback receiving started/finished/failed/
            warning :class:`ProgressEvent` records (in this process).

    Returns:
        {cell.key: result} in cell order — a
        :class:`~repro.sim.single_core.SingleCoreResult`,
        :class:`~repro.sim.multi_core.MultiCoreResult`, or a shard's
        mergeable part dict.

    Raises:
        Whatever the first failing cell raised, after the remaining
        cells complete and the sweep manifest is written; only
        infrastructure failures fall back to the serial path.
    """
    cells = list(cells)
    if not cells:
        return {}
    workers = resolve_max_workers(max_workers)
    kind = grid_kind(cells)
    label = "mix-matrix" if kind == "mix_matrix" else "matrix"
    manifest_out = Path(manifest_dir) if manifest_dir is not None else None
    manifest_arg = str(manifest_out) if manifest_out is not None else None
    if manifest_out is not None:
        identify(cells)
    observer = _GridObserver(len(cells), on_event, manifest_out, label)
    start = perf_counter()
    outcome = None
    effective = 1
    if workers > 1 and len(cells) > 1:
        try:
            pickle.dumps([cell.factory for cell in cells])
        except Exception as exc:  # noqa: BLE001 — any pickling error
            reason = f"policy factories are not picklable ({type(exc).__name__}: {exc})"
        else:
            effective = min(workers, len(cells))
            outcome = _run_pooled(cells, effective, manifest_arg, observer)
            reason = "process pool unavailable (infrastructure failure)"
        if outcome is None:
            effective = 1
            observer.warn(
                "serial-fallback",
                f"{label}: requested {workers} workers but running serially — {reason}",
            )
    if outcome is None:
        outcome = _run_serial(cells, manifest_arg, observer)
    results, failures = outcome
    observer.close()
    if manifest_out is not None:
        _sweep_manifest(
            cells, observer, kind, workers, effective, perf_counter() - start
        ).save(manifest_out)
    if failures:
        raise failures[0][1]
    return {cell.key: results[cell.key] for cell in cells}


__all__ = [
    "Cell",
    "ENV_MAX_WORKERS",
    "describe_factory",
    "grid_kind",
    "identify",
    "resolve_max_workers",
    "run_cells",
]
