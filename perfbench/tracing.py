"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start, end, parent). Spans of one benchmark run share
the recorder's trace id; nothing is written while the benchmark runs. A
span's *self time* is its duration minus the part of it that its child
spans cover. The recorder is single-threaded: children nest strictly
inside their parent, so the covered part is the sum of the children.

With tracing off the benchmark uses :data:`OFF`, whose ``span`` is a
shared no-op context manager, so untraced runs pay one attribute lookup
per call site.
"""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    """One recorded interval; ``parent`` indexes the recorder's list."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects nested spans in memory for one benchmark process."""

    enabled = True

    def __init__(self) -> None:
        self.trace_id = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name=name, start=perf_counter(), parent=parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, dict]:
        """Per span name: call count, total seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.duration
        table: dict[str, dict] = {}
        for index, record in enumerate(self.spans):
            row = table.setdefault(record.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += record.duration
            row["self_s"] += record.duration - covered[index]
        return table


class _Off:
    """The disabled recorder: every span is the same no-op."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null


OFF = _Off()
