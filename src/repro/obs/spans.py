"""Hierarchical wall-time spans for sweeps, persisted as JSONL.

A :class:`SpanTracer` records distributed-tracing-style spans — each
with a ``trace_id``, ``span_id``, optional ``parent_id``, a
``perf_counter``-measured duration, and free-form attributes — and
appends them as one JSON object per line to ``spans.jsonl`` next to the
``events.jsonl`` a sweep already writes. Parent/child linkage is
carried implicitly through a :mod:`contextvars` context variable, so a
span opened in ``service/scheduler.py`` automatically becomes the
parent of the grid span opened in ``sim/cells.py`` and of every
per-cell span under it, without threading tracer state through call
signatures.

Two recording styles cooperate:

* ``with tracer.span("run-grid", label=...)`` — a context manager for
  code you can wrap;
* ``tracer.emit(name, start_s, duration_s, ...)`` — for spans whose
  timing was measured elsewhere (per-cell spans are timed by the grid
  observer and emitted at completion, parented under whatever span is
  current).

The disabled path mirrors :class:`repro.obs.telemetry.Telemetry`: a
tracer constructed without a path is inert and ``span()`` returns a
preallocated no-op singleton. Read a span file back with
:func:`read_spans` (tolerant of a torn final line, like the event log)
and render it with :func:`render_span_tree`, which draws the tree and
marks the critical path — the chain built by following the
longest-duration child from each root — with ``*``.
"""

from __future__ import annotations

import contextvars
import json
import os
import uuid
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from repro.obs.trace_log import read_jsonl

#: Default span-log filename inside a manifest directory.
SPANS_FILENAME = "spans.jsonl"

#: The (trace_id, span_id) of the innermost active span, or None.
_CURRENT_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "repro_current_span", default=None
)


def current_span_ids() -> tuple | None:
    """The ``(trace_id, span_id)`` of the innermost active span, if any."""
    return _CURRENT_SPAN.get()


def _new_id() -> str:
    """A fresh 16-hex-char span/trace identifier."""
    return uuid.uuid4().hex[:16]


class _NullActiveSpan:
    """Shared no-op returned by disabled tracers' ``span()``."""

    __slots__ = ()

    def __enter__(self) -> "_NullActiveSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, key: str, value) -> None:
        """Discard an attribute (disabled path)."""


#: Singleton every disabled :meth:`SpanTracer.span` call returns.
NULL_ACTIVE_SPAN = _NullActiveSpan()


class _ActiveSpan:
    """An open span: times its body and writes one record on exit."""

    __slots__ = (
        "_tracer", "name", "trace_id", "span_id", "parent_id",
        "attributes", "_start", "_token",
    )

    def __init__(self, tracer: "SpanTracer", name: str, attributes: dict):
        self._tracer = tracer
        self.name = name
        parent = _CURRENT_SPAN.get()
        self.trace_id = parent[0] if parent else _new_id()
        self.span_id = _new_id()
        self.parent_id = parent[1] if parent else None
        self.attributes = attributes
        self._start = 0.0
        self._token = None

    def set(self, key: str, value) -> None:
        """Attach (or overwrite) one attribute on the open span."""
        self.attributes[key] = value

    def __enter__(self) -> "_ActiveSpan":
        self._token = _CURRENT_SPAN.set((self.trace_id, self.span_id))
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = perf_counter() - self._start
        _CURRENT_SPAN.reset(self._token)
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._write(
            name=self.name,
            trace_id=self.trace_id,
            span_id=self.span_id,
            parent_id=self.parent_id,
            start_s=self._start,
            duration_s=duration,
            attributes=self.attributes,
        )
        return False


class SpanTracer:
    """Appends span records to a JSONL file; inert without a path.

    Construct directly with a file path, or with
    :meth:`SpanTracer.for_dir` to place ``spans.jsonl`` inside a
    manifest directory (returning an inert tracer when the directory is
    ``None`` — the same "no manifest dir, no persistence" convention the
    event log follows).
    """

    __slots__ = ("path", "enabled", "_fh")

    def __init__(self, path: str | os.PathLike | None) -> None:
        self.path = Path(path) if path is not None else None
        self.enabled = self.path is not None
        self._fh = None

    @classmethod
    def for_dir(cls, directory: str | os.PathLike | None) -> "SpanTracer":
        """A tracer writing ``spans.jsonl`` under ``directory``
        (inert when ``directory`` is None)."""
        if directory is None:
            return cls(None)
        return cls(Path(directory) / SPANS_FILENAME)

    def span(self, name: str, **attributes):
        """Context manager opening a child of the current span.

        Returns the shared :data:`NULL_ACTIVE_SPAN` singleton when the
        tracer is disabled, so the disabled path allocates nothing.
        """
        if not self.enabled:
            return NULL_ACTIVE_SPAN
        return _ActiveSpan(self, name, attributes)

    def emit(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        attributes: dict | None = None,
    ) -> None:
        """Write one already-timed span, parented under the current span.

        Used for spans whose timing was measured outside a ``with``
        block — e.g. per-cell grid spans timed dispatch-to-completion by
        the grid observer.
        """
        if not self.enabled:
            return
        parent = _CURRENT_SPAN.get()
        self._write(
            name=name,
            trace_id=parent[0] if parent else _new_id(),
            span_id=_new_id(),
            parent_id=parent[1] if parent else None,
            start_s=start_s,
            duration_s=duration_s,
            attributes=attributes or {},
        )

    def _write(self, **record) -> None:
        """Append one span record and flush (lazy-opens the file)."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        record["ts"] = datetime.now(timezone.utc).isoformat(
            timespec="milliseconds"
        )
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "SpanTracer":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


def read_spans(path: str | os.PathLike) -> list[dict]:
    """Parse a ``spans.jsonl`` file back into span dicts.

    A torn final line (tracer killed mid-append) is skipped with a
    single warning, exactly like :func:`repro.obs.trace_log.read_events`.
    """
    return read_jsonl(path, what="span log")


def render_span_tree(spans: list[dict]) -> str:
    """Render spans as an indented tree with the critical path marked.

    Spans are grouped by ``trace_id`` (one tree per trace, roots are
    spans whose parent is absent from the file); children sort by start
    time. The critical path — from each root, repeatedly descend into
    the child with the largest duration — is marked with a trailing
    ``*``, answering "where did the wall time actually go". Durations
    render in seconds with millisecond precision.
    """
    if not spans:
        return "(no spans recorded)\n"
    children: dict = {span["span_id"]: [] for span in spans}
    roots = []
    for span in spans:
        parent = span.get("parent_id")
        if parent in children:
            children[parent].append(span)
        else:
            roots.append(span)
    for kids in children.values():
        kids.sort(key=lambda s: s.get("start_s", 0.0))
    critical: set = set()
    for root in roots:
        node = root
        while node is not None:
            critical.add(node["span_id"])
            kids = children[node["span_id"]]
            node = max(kids, key=lambda s: s["duration_s"]) if kids else None

    lines: list[str] = []

    def _render(span: dict, indent: str, is_last: bool) -> None:
        connector = "" if not indent and is_last is None else (
            "└─ " if is_last else "├─ "
        )
        mark = " *" if span["span_id"] in critical else ""
        attrs = span.get("attributes") or {}
        status = f" [{attrs['status']}]" if "status" in attrs else ""
        lines.append(
            f"{indent}{connector}{span['name']}"
            f"  {span['duration_s']:.3f}s{status}{mark}"
        )
        kids = children[span["span_id"]]
        child_indent = indent + (
            "" if is_last is None else ("   " if is_last else "│  ")
        )
        for i, kid in enumerate(kids):
            _render(kid, child_indent, i == len(kids) - 1)

    roots.sort(key=lambda s: s.get("start_s", 0.0))
    for root in roots:
        _render(root, "", None)
    lines.append("")
    lines.append(f"{len(spans)} spans, {len(roots)} root(s); * = critical path")
    return "\n".join(lines) + "\n"


__all__ = [
    "NULL_ACTIVE_SPAN",
    "SPANS_FILENAME",
    "SpanTracer",
    "current_span_ids",
    "read_spans",
    "render_span_tree",
]
