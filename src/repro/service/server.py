"""The ``repro serve`` daemon: an always-on, resumable sweep service.

:class:`SweepService` is a single-process asyncio server that owns a
*service root* directory (job store + per-namespace manifest dirs + unix
socket), accepts sweep specs over the line-delimited JSON protocol
(:mod:`repro.service.protocol`), and executes them one at a time on a
worker thread — each sweep internally fanning out across a process pool
via :func:`repro.sim.cells.run_cells`, with per-cell failure isolation
and manifest-driven resume (:mod:`repro.service.scheduler`).

Durability model: every state transition of a job is persisted
atomically before it is acted on, and cell completion is recorded by the
simulation layer's atomic per-cell manifests. So the daemon can die at
any point — SIGTERM, SIGKILL, power loss — and on restart
:meth:`repro.service.jobs.JobStore.recover` re-queues interrupted jobs,
whose completed cells the resume scheduler then skips. The SIGTERM
handler merely makes the common case tidy (persist ``interrupted=True``
eagerly, close the socket); correctness never depends on it running.

Progress streaming: each job keeps an in-memory event history; ``watch``
clients replay the history and then follow live events. Events are
published from the worker thread via ``loop.call_soon_threadsafe``, so
history appends happen only on the event loop — a subscriber snapshots
``len(history)`` and registers its queue with no await in between, which
makes the replay/live handoff gap-free and duplicate-free.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
from dataclasses import asdict
from datetime import datetime
from time import perf_counter
from typing import Callable

from repro.obs.metrics import METRICS, histogram_percentiles
from repro.service.jobs import JobRecord, JobStore, SpecError, SweepSpec, policy_factories
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    error_response,
    read_message,
    service_socket,
    write_message,
)
from repro.service.scheduler import execute_spec


class SweepService:
    """The sweep daemon: job queue, executor thread, and socket server.

    Args:
        root: the service root directory (created on demand). Holds
            ``jobs/``, ``namespaces/<ns>/`` manifest dirs, and the
            ``service.sock`` unix socket.
        install_signal_handlers: register SIGTERM/SIGINT handlers that
            persist in-flight state and exit. Disable for in-process
            embedding (tests, notebooks) where the host owns signals.
    """

    def __init__(
        self, root: str | os.PathLike, install_signal_handlers: bool = True
    ) -> None:
        self.store = JobStore(root)
        self.socket_path = service_socket(root)
        self.install_signal_handlers = install_signal_handlers
        self._queue: asyncio.Queue[str] = asyncio.Queue()
        self._history: dict[str, list[dict]] = {}
        self._subscribers: dict[str, list[asyncio.Queue]] = {}
        self._current: JobRecord | None = None
        self._current_cell: str | None = None
        self._server: asyncio.AbstractServer | None = None
        self._worker: asyncio.Task | None = None
        self._stopping = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Recover persisted state, bind the socket, start the worker.

        Also turns on the process-wide metrics registry: a daemon must
        always be able to answer a ``stats`` request with live queue
        depth and latency percentiles, regardless of the
        ``$REPRO_TELEMETRY`` gate library users opt into. Forked pool
        workers inherit the enabled registry and their per-task
        snapshots merge back through the grid runners. :meth:`stop`
        restores the registry's prior enabled state so in-process
        embedders (tests) don't leak metrics collection.
        """
        self._metrics_was_enabled = METRICS.enabled
        METRICS.enable()
        self.store.ensure_layout()
        for record in self.store.recover():
            self._queue.put_nowait(record.job_id)
        with contextlib.suppress(OSError):
            self.socket_path.unlink()
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=str(self.socket_path)
        )
        if self.install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(signum, self._handle_termination, signum)
        self._worker = asyncio.create_task(self._drain_jobs())

    async def run(self) -> None:
        """Start and serve until :meth:`stop` (or a signal) ends it."""
        await self.start()
        await self._stopping.wait()
        await self.stop()

    async def stop(self) -> None:
        """Graceful in-process shutdown (used by tests and ``shutdown``)."""
        self._stopping.set()
        if self._worker is not None:
            self._worker.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._worker
            self._worker = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        with contextlib.suppress(OSError):
            self.socket_path.unlink()
        if not getattr(self, "_metrics_was_enabled", True):
            METRICS.disable()

    def _handle_termination(self, signum: int) -> None:
        """SIGTERM/SIGINT: persist in-flight state, exit immediately.

        The running job flips back to ``queued`` with
        ``interrupted=True`` so the next daemon resumes it; its completed
        cells are already durable as manifests. ``os._exit`` skips
        teardown on purpose — pool workers die with the process, and
        everything that matters is already on disk.
        """
        record = self._current
        if record is not None and not record.terminal:
            record.state = "queued"
            record.interrupted = True
            with contextlib.suppress(OSError):
                self.store.save(record)
        with contextlib.suppress(OSError):
            self.socket_path.unlink()
        os._exit(0)

    # -- job execution -----------------------------------------------------

    async def _drain_jobs(self) -> None:
        """The single worker loop: pop and run queued jobs in order."""
        while True:
            job_id = await self._queue.get()
            record = self.store.get(job_id)
            if record is None or record.state != "queued":
                continue
            await self._run_job(record)

    async def _run_job(self, record: JobRecord) -> None:
        """Execute one job on a thread; publish lifecycle + progress."""
        from repro.obs.manifest import utc_now_iso

        loop = asyncio.get_running_loop()
        record.state = "running"
        record.started_at = utc_now_iso()
        record.queue_wait_s = self._elapsed_between(
            record.submitted_at, record.started_at
        )
        self.store.save(record)
        self._current = record
        self._publish(record.job_id, {"kind": "job-state", "state": "running"})

        counts = {"skipped": 0, "finished": 0, "failed": 0}

        def on_event(event) -> None:
            if event.kind in counts:
                counts[event.kind] += 1
            if event.kind == "started":
                # Plain attribute write from the worker thread: atomic
                # under the GIL, read by the `stats` verb on the loop.
                self._current_cell = event.key
            loop.call_soon_threadsafe(self._publish, record.job_id, asdict(event))

        namespace_dir = self.store.namespace_dir(record.spec.namespace)
        run_started = perf_counter()
        try:
            summary = await asyncio.to_thread(
                execute_spec, record.spec, namespace_dir, on_event
            )
        except Exception as exc:  # noqa: BLE001 — job isolation boundary
            record.state = "failed"
            record.error = f"{type(exc).__name__}: {exc}"
        else:
            record.state = "done"
            record.total_cells = summary["total_cells"]
            self._submit_followups(record, summary.get("followups") or [])
        record.finished_at = utc_now_iso()
        record.runtime_s = perf_counter() - run_started
        record.skipped_cells = counts["skipped"]
        record.ran_cells = counts["finished"]
        record.failed_cells = counts["failed"]
        if record.state == "done" and counts["failed"]:
            record.state = "failed"
            record.error = f"{counts['failed']} cell(s) failed"
        if record.queue_wait_s is not None:
            METRICS.observe("service.job_queue_wait_s", record.queue_wait_s)
        METRICS.observe("service.job_runtime_s", record.runtime_s)
        METRICS.inc(f"service.jobs_{record.state}")
        self._current = None
        self._current_cell = None
        self.store.save(record)
        self._publish(
            record.job_id,
            {"kind": "job-state", "state": record.state, "error": record.error},
        )
        self._finish_stream(record.job_id)

    @staticmethod
    def _elapsed_between(start_iso: str | None, end_iso: str | None) -> float | None:
        """Seconds between two ISO timestamps, or None when unparsable.

        Job records carry wall-clock ISO strings (they must survive a
        daemon restart, which a ``perf_counter`` origin would not), so
        queue wait is derived from them; clock steps can make this
        slightly off, which is fine for a latency column.
        """
        if not start_iso or not end_iso:
            return None
        try:
            start = datetime.fromisoformat(start_iso)
            end = datetime.fromisoformat(end_iso)
        except ValueError:
            return None
        return max(0.0, (end - start).total_seconds())

    def _submit_followups(self, parent: JobRecord, specs: list) -> None:
        """Queue the simulation jobs a predict job asked for.

        Each spec dict (from ``execute_predict``'s summary) becomes a
        normal queued :class:`JobRecord` — persisted first, so a daemon
        crash between parent completion and follow-up execution recovers
        them like any other queued job. A ``followup`` event on the
        parent's stream links each child id for watchers. A malformed
        follow-up spec fails that follow-up only, never the parent (its
        results are already durable); the error is published instead.
        """
        for spec_dict in specs:
            try:
                spec = SweepSpec.from_dict(spec_dict)
                spec.validate()
                policy_factories(spec)
            except SpecError as exc:
                self._publish(
                    parent.job_id,
                    {"kind": "followup-error", "error": str(exc)},
                )
                continue
            child = JobRecord.new(spec)
            self.store.save(child)
            self._queue.put_nowait(child.job_id)
            self._publish(
                parent.job_id,
                {
                    "kind": "followup",
                    "job_id": child.job_id,
                    "num_sets": spec.num_sets,
                    "ways": spec.ways,
                    "policies": spec.policies,
                },
            )

    # -- event fan-out -----------------------------------------------------

    def _publish(self, job_id: str, event: dict) -> None:
        """Append one event to history and offer it to live watchers.

        Must run on the event loop thread (worker threads get here via
        ``call_soon_threadsafe``) so appends are ordered and the
        snapshot-then-subscribe handoff in ``watch`` stays race-free.
        """
        self._history.setdefault(job_id, []).append(event)
        for queue in self._subscribers.get(job_id, []):
            queue.put_nowait(event)

    def _finish_stream(self, job_id: str) -> None:
        """Signal end-of-stream (None sentinel) to every watcher."""
        for queue in self._subscribers.get(job_id, []):
            queue.put_nowait(None)

    # -- protocol handlers -------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        """Serve one connection: a sequence of requests until EOF."""
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError as exc:
                    await write_message(writer, error_response(str(exc)))
                    break
                if message is None:
                    break
                done = await self._dispatch(message, writer)
                if done:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, message: dict, writer) -> bool:
        """Handle one request; returns True when the connection is done."""
        op = message.get("op")
        if op == "ping":
            await write_message(
                writer,
                {
                    "ok": True,
                    "protocol": PROTOCOL_VERSION,
                    "queued": self._queue.qsize(),
                    "running": None if self._current is None else self._current.job_id,
                },
            )
            return False
        if op == "submit":
            return await self._op_submit(message, writer)
        if op == "jobs":
            await write_message(
                writer,
                {"ok": True, "jobs": [r.to_dict() for r in self.store.list_jobs()]},
            )
            return False
        if op == "watch":
            await self._op_watch(message, writer)
            return False
        if op == "stats":
            await write_message(writer, self._stats_payload())
            return False
        if op == "shutdown":
            await write_message(writer, {"ok": True, "stopping": True})
            self._stopping.set()
            return True
        await write_message(writer, error_response(f"unknown op {op!r}"))
        return False

    def _stats_payload(self) -> dict:
        """The live ``stats`` response: queue, jobs, latency, metrics.

        Refreshes the registry's service gauges (queue depth, jobs per
        state) so a Prometheus scrape of the embedded snapshot carries
        them, then summarizes every histogram into p50/p90/p99 — the
        cell-level ``grid.cell_runtime_s`` / ``grid.cell_queue_wait_s``
        and the job-level ``service.job_*`` distributions are the ones
        ``repro top`` renders.
        """
        jobs_by_state: dict[str, int] = {}
        for record in self.store.list_jobs():
            jobs_by_state[record.state] = jobs_by_state.get(record.state, 0) + 1
        METRICS.gauge("service.queue_depth", self._queue.qsize())
        for state, count in jobs_by_state.items():
            METRICS.gauge(f"service.jobs_state_{state}", count)
        snapshot = METRICS.snapshot()
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "queue_depth": self._queue.qsize(),
            "jobs_by_state": jobs_by_state,
            "running": None if self._current is None else self._current.job_id,
            "running_cell": self._current_cell,
            "skipped_cells_total": snapshot["counters"].get(
                "scheduler.cells_skipped", 0
            ),
            "percentiles": {
                name: histogram_percentiles(payload)
                for name, payload in snapshot["histograms"].items()
            },
            "metrics": snapshot,
        }

    async def _op_submit(self, message: dict, writer) -> bool:
        """Validate a spec, persist a queued record, enqueue it."""
        try:
            spec = SweepSpec.from_dict(message.get("spec") or {})
            spec.validate()
            policy_factories(spec)  # fail fast on unknown policy names
        except SpecError as exc:
            await write_message(writer, error_response(str(exc)))
            return False
        record = JobRecord.new(spec)
        self.store.save(record)
        self._queue.put_nowait(record.job_id)
        await write_message(writer, {"ok": True, "job": record.to_dict()})
        return False

    async def _op_watch(self, message: dict, writer) -> None:
        """Stream a job's events: replay history, then follow live."""
        job_id = message.get("job_id")
        record = None if job_id is None else self.store.get(job_id)
        if record is None:
            await write_message(writer, error_response(f"unknown job {job_id!r}"))
            return
        replay = bool(message.get("replay", True))
        history = self._history.setdefault(job_id, [])
        queue: asyncio.Queue = asyncio.Queue()
        # Snapshot + subscribe with no await in between: every event is
        # either in the snapshot or will arrive on the queue — never both.
        snapshot = list(history) if replay else []
        live = not record.terminal
        if live:
            self._subscribers.setdefault(job_id, []).append(queue)
        try:
            for event in snapshot:
                await write_message(writer, {"ok": True, "event": event})
            while live:
                event = await queue.get()
                if event is None:
                    break
                await write_message(writer, {"ok": True, "event": event})
        finally:
            if live:
                with contextlib.suppress(ValueError):
                    self._subscribers.get(job_id, []).remove(queue)
        final = self.store.get(job_id) or record
        await write_message(writer, {"ok": True, "done": final.to_dict()})


def serve(root: str | os.PathLike, ready: Callable[[], None] | None = None) -> None:
    """Blocking entry point for ``repro serve``: run a daemon at ``root``."""

    async def _main() -> None:
        service = SweepService(root)
        await service.start()
        if ready is not None:
            ready()
        await service._stopping.wait()
        await service.stop()

    asyncio.run(_main())


__all__ = ["SweepService", "serve"]
