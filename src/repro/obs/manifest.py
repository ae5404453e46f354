"""Run manifests: structured provenance records for simulation runs.

A :class:`Manifest` captures everything needed to trust (and re-run) one
simulation: what was simulated (workload name + trace fingerprint), how
(policy, engine, cache geometry, seed), in which code state (git SHA),
what came out (counters and derived metrics), and where the time went
(wall time, accesses/second, an optional telemetry snapshot). Sweep-level
manifests additionally record per-task status — including failed tasks
with a traceback summary — so a partially failed grid is diagnosable
after the fact.

Manifests are plain JSON documents written atomically (temp file +
``os.replace``) into a per-run directory, one file per run, named by the
run id. They round-trip exactly: ``Manifest.load(manifest.save(dir))``
compares equal to the original (``tests/test_obs.py``). All field values
are JSON-native (str/int/float/bool/None/dict/list), which is what makes
the round trip lossless.

:func:`summarize_manifests` aggregates a directory of manifests back
into the comparison table the run produced them from — the CLI command
``python -m repro obs summarize <dir>`` is a thin wrapper around it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import tempfile
import traceback
import uuid
import warnings
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

#: Manifest schema version; bump on incompatible layout changes.
#: v1: original layout (PR 3). v2: adds the ``timeseries`` field
#: (windowed per-run statistics, see :mod:`repro.obs.timeseries`);
#: v1 documents load cleanly with an empty ``timeseries``.
MANIFEST_SCHEMA_VERSION = 2

#: Environment variable naming a default manifest directory for the CLI.
ENV_MANIFEST_DIR = "REPRO_MANIFEST_DIR"


def new_run_id() -> str:
    """A unique, sortable run id: UTC timestamp plus random suffix."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    return f"{stamp}-{uuid.uuid4().hex[:8]}"


def utc_now_iso() -> str:
    """The current UTC time in ISO-8601 (millisecond precision).

    Job records derive queue wait from these stamps, so whole seconds
    would read a sub-second wait as 0. Stamps of either precision sort
    chronologically as strings.
    """
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


@lru_cache(maxsize=1)
def git_sha() -> str | None:
    """The repository HEAD SHA, or None when git is unavailable.

    Cached per process — workers of a parallel sweep pay the subprocess
    cost at most once each.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


class FingerprintAccumulator:
    """Streaming trace fingerprint, chunk-size invariant.

    Each columnar array feeds its own running SHA-256, so hashing a
    trace in one shot or in arbitrary chunk splits yields the same
    digest — the property that lets a chunked-streaming run's manifest
    fingerprint match the one-shot run's (``tests/test_streaming.py``).
    Call :meth:`update` per chunk, then :meth:`digest` with the
    stream-level metadata.

    Trace subclasses carrying extra columns (e.g.
    :class:`repro.traces.objects.ObjectTrace` with sizes/ops/timestamps)
    expose them through an ``extra_column_items()`` method; each named
    extra column feeds its own running hash, keyed by name, so the
    digest covers everything a simulation can observe while plain
    traces keep their historical fingerprints bit for bit.
    """

    def __init__(self) -> None:
        self._addresses = hashlib.sha256()
        self._pcs = hashlib.sha256()
        self._thread_ids = hashlib.sha256()
        self._extra: dict[str, "hashlib._Hash"] = {}

    def update(self, chunk) -> None:
        """Fold one :class:`Trace` chunk's columns into the running hash."""
        self._addresses.update(chunk.addresses.tobytes())
        self._pcs.update(chunk.pcs.tobytes())
        self._thread_ids.update(chunk.thread_ids.tobytes())
        extra_items = getattr(chunk, "extra_column_items", None)
        if extra_items is not None:
            for column_name, column in extra_items():
                if column_name not in self._extra:
                    self._extra[column_name] = hashlib.sha256()
                self._extra[column_name].update(column.tobytes())

    def digest(self, name: str, instructions_per_access: float) -> str:
        """Finalize with the stream-level name and dilution."""
        combined = hashlib.sha256()
        combined.update(self._addresses.digest())
        combined.update(self._pcs.digest())
        combined.update(self._thread_ids.digest())
        for column_name in sorted(self._extra):
            combined.update(column_name.encode("utf-8"))
            combined.update(self._extra[column_name].digest())
        combined.update(name.encode("utf-8"))
        combined.update(repr(float(instructions_per_access)).encode("utf-8"))
        return combined.hexdigest()[:24]


def trace_fingerprint(trace) -> str:
    """A stable content hash of a :class:`repro.traces.trace.Trace`.

    Hashes the three columnar arrays plus the name and the
    instructions-per-access dilution, so two traces fingerprint equal iff
    a simulation cannot tell them apart. Implemented via
    :class:`FingerprintAccumulator`, so a chunked stream of the same
    content fingerprints identically.
    """
    accumulator = FingerprintAccumulator()
    accumulator.update(trace)
    return accumulator.digest(trace.name, trace.instructions_per_access)


def fingerprint_source(trace_or_stream) -> str:
    """Fingerprint an in-memory trace *or* a chunked stream.

    An in-memory :class:`repro.traces.trace.Trace` hashes in one shot
    (:func:`trace_fingerprint`); anything exposing ``chunks()`` (a
    :class:`repro.traces.stream.TraceStream`) is re-scanned chunk by
    chunk in O(chunk) memory. Both paths produce the identical
    chunk-size-invariant digest, which is what lets a resume scheduler
    match a stream-sourced sweep against per-cell manifests written from
    the same content.
    """
    chunks = getattr(trace_or_stream, "chunks", None)
    if chunks is None:
        return trace_fingerprint(trace_or_stream)
    accumulator = FingerprintAccumulator()
    for chunk in chunks():
        accumulator.update(chunk)
    return accumulator.digest(
        trace_or_stream.name, trace_or_stream.instructions_per_access
    )


def resolve_manifest_dir(directory: str | os.PathLike | None = None) -> Path | None:
    """Resolve a manifest directory: argument, else ``$REPRO_MANIFEST_DIR``,
    else None (manifests disabled).

    Only the CLI layer applies the environment default; library entry
    points emit manifests solely when ``manifest_dir`` is passed
    explicitly, so nested helper runs never write surprise manifests.
    """
    if directory is not None:
        return Path(directory)
    env = os.environ.get(ENV_MANIFEST_DIR, "").strip()
    return Path(env) if env else None


def summarize_exception(exc: BaseException, limit: int = 3) -> str:
    """A short one-blob traceback summary for manifest failure records."""
    lines = traceback.format_exception(type(exc), exc, exc.__traceback__)
    tail = "".join(lines[-limit:]).strip()
    head = f"{type(exc).__name__}: {exc}"
    return head if head in tail else f"{head}\n{tail}"


@dataclass
class TaskFailure:
    """One failed task of a sweep/grid run, kept diagnosable post hoc."""

    key: str
    policy: str
    workload: str
    error_type: str
    message: str
    traceback_summary: str

    @classmethod
    def from_exception(
        cls, key, exc: BaseException, policy: str = "", workload: str = ""
    ) -> "TaskFailure":
        """Build a failure record from a raised exception."""
        return cls(
            key=str(key),
            policy=policy,
            workload=workload,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback_summary=summarize_exception(exc),
        )


@dataclass
class Manifest:
    """Provenance record of one simulation run (or one sweep of runs).

    ``kind`` names the entry point that produced it: ``"llc"``,
    ``"hierarchy"``, ``"shared_llc"``, ``"matrix"`` or ``"mix_matrix"``.
    Single-run manifests carry counters in ``stats`` and derived numbers
    (hit rate, MPKI, IPC, or W/T/H) in ``metrics``; sweep manifests carry
    the task list in ``tasks`` and any :class:`TaskFailure` records in
    ``failures``. Runs recorded with a
    :class:`repro.obs.timeseries.WindowedRecorder` persist its
    schema-versioned window payload in ``timeseries`` (schema v2; v1
    documents load with it empty). All values are JSON-native so
    ``save`` → ``load`` round-trips to an equal object.
    """

    kind: str
    workload: str
    policy: str
    engine: str = "fast"
    label: str | None = None
    seed: int | None = None
    config: dict = field(default_factory=dict)
    trace_fingerprint: str | None = None
    git_sha: str | None = None
    created_at: str = field(default_factory=utc_now_iso)
    wall_time_s: float = 0.0
    accesses: int = 0
    accesses_per_sec: float = 0.0
    stats: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    telemetry: dict = field(default_factory=dict)
    timeseries: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    run_id: str = field(default_factory=new_run_id)
    schema_version: int = MANIFEST_SCHEMA_VERSION

    def to_dict(self) -> dict:
        """The JSON-ready dictionary form (``failures`` become dicts)."""
        data = asdict(self)
        data["failures"] = [
            asdict(f) if isinstance(f, TaskFailure) else dict(f)
            for f in self.failures
        ]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Manifest":
        """Rebuild a manifest from :meth:`to_dict` output."""
        payload = dict(data)
        payload["failures"] = [
            TaskFailure(**f) for f in payload.get("failures", [])
        ]
        known = {f for f in cls.__dataclass_fields__}
        unknown = {k: v for k, v in payload.items() if k not in known}
        if unknown:
            # Forward-compatible: keep fields from newer schemas visible.
            payload = {k: v for k, v in payload.items() if k in known}
            payload.setdefault("extra", {}).update({"_unknown": unknown})
        return cls(**payload)

    def save(self, directory: str | os.PathLike) -> Path:
        """Atomically write ``<directory>/<run_id>.json``; returns the path.

        Uses temp-file + ``os.replace`` so concurrent sweep workers can
        share one manifest directory without readers ever observing a
        partial document.
        """
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        path = root / f"{self.run_id}.json"
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        handle, temp_path = tempfile.mkstemp(dir=root, suffix=".json.tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Manifest":
        """Read one manifest previously written by :meth:`save`."""
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class SkippedManifest:
    """One manifest file that failed to parse during a directory scan."""

    path: str
    error: str


@dataclass
class ManifestLoadReport:
    """Outcome of scanning a manifest directory.

    ``manifests`` holds every successfully parsed document (sorted by
    ``(created_at, run_id)``); ``skipped`` records each file that failed
    to parse, with the error. A non-empty ``skipped`` list means the
    directory cannot be trusted as a resume substrate — a corrupt cell
    manifest would make a resume scheduler re-run (or mis-skip) work —
    so consumers that resume from manifests must refuse unless forced.
    """

    manifests: list[Manifest] = field(default_factory=list)
    skipped: list[SkippedManifest] = field(default_factory=list)


def scan_manifests(directory: str | os.PathLike) -> ManifestLoadReport:
    """Scan ``directory`` for ``*.json`` manifests, reporting failures.

    Unlike the historical :func:`load_manifests` behaviour, files that
    fail to parse are *returned* (path + error) instead of silently
    dropped, so callers can surface them — ``repro obs summarize``
    prints them, and the sweep-service scheduler refuses to resume over
    them without ``--force``. A missing directory scans as empty.
    """
    root = Path(directory)
    report = ManifestLoadReport()
    if not root.is_dir():
        return report
    for path in sorted(root.glob("*.json")):
        try:
            report.manifests.append(Manifest.load(path))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            report.skipped.append(
                SkippedManifest(path=str(path), error=f"{type(exc).__name__}: {exc}")
            )
    report.manifests.sort(key=lambda m: (m.created_at, m.run_id))
    return report


def load_manifests(directory: str | os.PathLike) -> list[Manifest]:
    """Load every ``*.json`` manifest under ``directory``, sorted by
    (created_at, run_id).

    Unparseable files are excluded from the result but no longer pass
    silently: each one raises a :class:`RuntimeWarning` naming the file,
    and callers that need the full account (e.g. resume logic) should
    use :func:`scan_manifests` instead.
    """
    report = scan_manifests(directory)
    for skipped in report.skipped:
        warnings.warn(
            f"skipping unparseable manifest {skipped.path}: {skipped.error}",
            RuntimeWarning,
            stacklevel=2,
        )
    return report.manifests


def _format_metric(value) -> str:
    """Render one metric cell (floats at fixed precision)."""
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """Minimal aligned text table (obs stays import-light — no
    dependency on the experiments package)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = [title] if title else []
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows
    )
    return "\n".join(lines)


def summarize_manifests(
    manifests: list[Manifest],
    skipped: list[SkippedManifest] | None = None,
) -> str:
    """Render a directory of manifests as an aligned comparison table.

    Single-run manifests become one row each (workload x policy cell),
    including eviction and recorded-window counts when the manifest
    carries them; sweep-level manifests contribute a trailing status
    section listing task counts and any recorded failures. Manifests
    written by older schema versions degrade gracefully: missing
    columns render blank and a trailing note records the version skew
    instead of crashing. ``skipped`` (from :func:`scan_manifests`)
    appends a warning section naming every unparseable manifest file, so
    corrupt provenance is visible rather than silently absent.
    """
    rows = []
    sweeps = []
    stale = 0
    for manifest in manifests:
        if manifest.schema_version != MANIFEST_SCHEMA_VERSION:
            stale += 1
        if manifest.tasks or manifest.kind in ("matrix", "mix_matrix"):
            sweeps.append(manifest)
            continue
        metrics = manifest.metrics
        stats = manifest.stats if isinstance(manifest.stats, dict) else {}
        evictions = stats.get("evictions")
        timeseries = manifest.timeseries if isinstance(manifest.timeseries, dict) else {}
        window_count = timeseries.get("windows_closed")
        rows.append(
            [
                manifest.workload,
                manifest.label or manifest.policy,
                manifest.engine,
                str(manifest.accesses),
                _format_metric(metrics.get("hit_rate", stats.get("hit_rate", ""))),
                _format_metric(metrics.get("mpki", "")),
                _format_metric(metrics.get("ipc", metrics.get("weighted", ""))),
                "" if evictions is None else str(evictions),
                "" if window_count is None else str(window_count),
                f"{manifest.accesses_per_sec:,.0f}",
                f"{manifest.wall_time_s:.3f}",
            ]
        )
    sections = []
    if rows:
        sections.append(
            _table(
                [
                    "workload",
                    "policy",
                    "engine",
                    "accesses",
                    "hit_rate",
                    "mpki",
                    "ipc",
                    "evics",
                    "windows",
                    "acc/s",
                    "wall_s",
                ],
                rows,
                title=f"obs summarize — {len(rows)} runs",
            )
        )
    for sweep in sweeps:
        done = sum(1 for t in sweep.tasks if t.get("status") == "finished")
        failed = [t for t in sweep.tasks if t.get("status") == "failed"]
        lines = [
            f"sweep {sweep.run_id} ({sweep.kind}, {sweep.workload}): "
            f"{done}/{len(sweep.tasks)} tasks finished, {len(failed)} failed, "
            f"wall {sweep.wall_time_s:.3f}s"
        ]
        for failure in sweep.failures:
            lines.append(
                f"  FAILED {failure.key} [{failure.policy or '?'} on "
                f"{failure.workload or '?'}]: {failure.error_type}: {failure.message}"
            )
        sections.append("\n".join(lines))
    if stale:
        sections.append(
            f"note: {stale} manifest(s) were written by a different schema "
            f"version (current v{MANIFEST_SCHEMA_VERSION}); columns their "
            "schema lacks render blank"
        )
    if skipped:
        lines = [
            f"WARNING: {len(skipped)} manifest file(s) could not be parsed "
            "and are missing from the tables above:"
        ]
        lines.extend(f"  {s.path}: {s.error}" for s in skipped)
        sections.append("\n".join(lines))
    if not sections:
        return "no manifests found"
    return "\n\n".join(sections)


__all__ = [
    "ENV_MANIFEST_DIR",
    "FingerprintAccumulator",
    "MANIFEST_SCHEMA_VERSION",
    "Manifest",
    "ManifestLoadReport",
    "SkippedManifest",
    "TaskFailure",
    "fingerprint_source",
    "git_sha",
    "load_manifests",
    "new_run_id",
    "resolve_manifest_dir",
    "scan_manifests",
    "summarize_exception",
    "summarize_manifests",
    "trace_fingerprint",
    "utc_now_iso",
]
