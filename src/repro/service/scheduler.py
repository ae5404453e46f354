"""Manifest-driven resume scheduling for sweep grids.

The source of truth for "which cells already ran" is the per-cell run
manifests (:mod:`repro.obs.manifest`) that
:func:`repro.sim.cells.run_cells` writes into a namespace directory,
each recording its cell's content-addressed id
(:attr:`repro.sim.cells.Cell.id`: kind, factory and its arguments,
geometry, timing model, trace fingerprint). Before dispatching a grid,
the scheduler looks every cell's id up in the namespace; matched cells
are skipped and their results reconstructed from the manifest, so an
interrupted sweep restarts where it died and the merged output is
bit-identical to an uninterrupted run for everything a manifest
persists (counters, derived metrics, and the windowed time-series
payload). The engine and the cell label are not part of the identity:
engines are bit-identical, so a ``vector`` manifest satisfies a
``fast`` resubmission.

Trust rules:

- A manifest only exists if its run completed (manifests are written
  atomically *after* a successful simulation), so existence == cell
  complete.
- A namespace containing unparseable manifest files cannot be trusted —
  a corrupt cell manifest would silently re-run (or worse, mis-skip)
  work — so resuming over one raises :class:`CorruptManifestError`
  unless ``force=True``.
- When the job asked for a windowed time-series, a manifest without a
  matching ``window_size`` payload does not satisfy the cell (the
  resumed merge would lose windows) and the cell re-runs.
- ``match_git_sha=True`` additionally requires the manifest's recorded
  git SHA to equal the current HEAD.
- A cell without an id (a lambda or closure factory) always runs, and
  cell manifests without an id (written before ids existed) never
  satisfy a cell; both are announced by a :class:`RuntimeWarning` and a
  ``warning`` progress event per resume scan.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro.memory.cache import CacheGeometry
from repro.obs.manifest import (
    Manifest,
    ManifestLoadReport,
    fingerprint_source,
    scan_manifests,
)
from repro.obs.manifest import git_sha as _git_sha
from repro.obs.metrics import METRICS
from repro.obs.progress import ProgressEvent, ProgressReporter
from repro.obs.spans import SpanTracer
from repro.obs.trace_log import EVENTS_FILENAME, TraceLog
from repro.sim.cells import Cell, grid_kind, identify, run_cells
from repro.sim.multi_core import MultiCoreResult, ThreadOutcome
from repro.sim.parallel import mix_cells
from repro.sim.single_core import SingleCoreResult


class CorruptManifestError(RuntimeError):
    """Refusal to resume over a namespace with unparseable manifests.

    ``skipped`` carries the offending
    :class:`repro.obs.manifest.SkippedManifest` records; pass
    ``force=True`` (after inspecting or deleting the files) to resume
    anyway, treating the corrupt files as absent.
    """

    def __init__(self, skipped) -> None:
        paths = ", ".join(s.path for s in skipped)
        super().__init__(
            f"refusing to resume over {len(skipped)} corrupt manifest "
            f"file(s) (pass force=True to override): {paths}"
        )
        self.skipped = list(skipped)


@dataclass
class ResumePlan:
    """Outcome of matching a grid against existing manifests.

    ``skipped`` maps already-complete cell keys to results reconstructed
    from their manifests; ``to_run`` lists the keys still needing
    simulation, in original grid order. ``ids`` maps every cell key to
    the cell id the match used (None: unidentifiable, always runs).
    """

    skipped: dict = field(default_factory=dict)
    to_run: list = field(default_factory=list)
    ids: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        """Cells in the full grid."""
        return len(self.skipped) + len(self.to_run)


def check_resume_substrate(
    manifest_dir: str | os.PathLike, force: bool = False
) -> ManifestLoadReport:
    """Scan a namespace, refusing corrupt state unless forced."""
    report = scan_manifests(manifest_dir)
    if report.skipped and not force:
        raise CorruptManifestError(report.skipped)
    return report


def single_core_result_from_manifest(manifest: Manifest) -> SingleCoreResult:
    """Rebuild a :class:`SingleCoreResult` from an ``llc`` cell manifest.

    Counters come back bit-identical (they are JSON integers) and
    derived floats (IPC) round-trip exactly (JSON floats preserve the
    full ``repr``). ``extra`` carries only what manifests persist: the
    windowed time-series payload, when one was recorded.
    """
    stats = manifest.stats
    extra: dict = {}
    if manifest.timeseries:
        extra["timeseries"] = manifest.timeseries
    return SingleCoreResult(
        name=manifest.workload,
        accesses=stats["accesses"],
        hits=stats["hits"],
        misses=stats["misses"],
        bypasses=stats["bypasses"],
        instructions=stats["instructions"],
        ipc=manifest.metrics["ipc"],
        evictions=stats.get("evictions", 0),
        extra=extra,
    )


def multi_core_result_from_manifest(manifest: Manifest) -> MultiCoreResult:
    """Rebuild a :class:`MultiCoreResult` from a ``shared_llc`` manifest."""
    threads = [ThreadOutcome(**t) for t in manifest.stats["threads"]]
    extra: dict = {"singles": list(manifest.stats.get("singles", []))}
    if manifest.timeseries:
        extra["timeseries"] = manifest.timeseries
    return MultiCoreResult(
        name=manifest.workload,
        threads=threads,
        weighted=manifest.metrics["weighted"],
        throughput=manifest.metrics["throughput"],
        hmean=manifest.metrics["hmean"],
        extra=extra,
    )


def _window_matches(manifest: Manifest, window_size: int | None) -> bool:
    """Whether a manifest satisfies the job's windowed-series request."""
    if window_size is None:
        return True
    timeseries = manifest.timeseries if isinstance(manifest.timeseries, dict) else {}
    return timeseries.get("window_size") == window_size


def plan_resume(
    cells: list[Cell], manifests: list[Manifest], match_git_sha: bool = False
) -> ResumePlan:
    """Match cells against a namespace's cell manifests by cell id.

    A cell is skipped when the latest manifest recording its
    :attr:`~repro.sim.cells.Cell.id` also satisfies its window request
    and, under ``match_git_sha``, was written at the current HEAD. A
    cell without an id always runs.
    """
    by_id: dict[str, list[Manifest]] = {}
    for manifest in manifests:
        cell_id = manifest.extra.get("cell_id")
        if cell_id is not None:
            by_id.setdefault(cell_id, []).append(manifest)
    head = _git_sha() if match_git_sha else None
    plan = ResumePlan(ids=dict(zip((cell.key for cell in cells), identify(cells))))
    for cell in cells:
        match = next(
            (
                m
                for m in reversed(by_id.get(plan.ids[cell.key], []))
                if _window_matches(m, cell.window_size)
                and (not match_git_sha or m.git_sha == head)
            ),
            None,
        )
        if match is None:
            plan.to_run.append(cell.key)
        elif match.kind == "shared_llc":
            plan.skipped[cell.key] = multi_core_result_from_manifest(match)
        else:
            plan.skipped[cell.key] = single_core_result_from_manifest(match)
    return plan


def _emit_scan_events(
    plan: ResumePlan,
    manifests: list[Manifest],
    manifest_dir: str | os.PathLike,
    on_event: Callable[[ProgressEvent], None] | None,
) -> None:
    """Report the resume scan: warnings, then one ``skipped`` event per
    resumed cell.

    Cells without an id and cell manifests without one (written before
    cell ids existed, or outside a grid) each raise one
    :class:`RuntimeWarning` per scan and a ``warning`` event. Events go
    to ``on_event`` and — matching the grid runners' observability
    contract — to the namespace's ``events.jsonl``.
    """
    notices = []
    legacy = sum(
        m.kind in ("llc", "shared_llc") and "cell_id" not in m.extra for m in manifests
    )
    if legacy:
        notices.append((
            "legacy-manifests",
            f"{legacy} cell manifest(s) in {manifest_dir} record no cell id "
            "and never satisfy a cell; their cells run again",
        ))
    unidentified = [str(key) for key, cell_id in plan.ids.items() if cell_id is None]
    if unidentified:
        notices.append((
            "unidentified-cells",
            f"{len(unidentified)} cell(s) have no id (a lambda, closure or "
            f"non-JSON factory argument) and always run: {', '.join(unidentified)}",
        ))
    if not notices and not plan.skipped:
        return
    METRICS.inc("scheduler.cells_skipped", len(plan.skipped))
    log = TraceLog(Path(manifest_dir) / EVENTS_FILENAME)

    def emit(kind: str, key, done: int = 0, error: str | None = None) -> None:
        event = ProgressEvent(
            kind=kind, key=str(key), done=done, total=len(plan.skipped),
            elapsed_s=0.0, error=error,
        )
        log.emit_progress(event)
        if on_event is not None:
            on_event(event)

    try:
        for key, message in notices:
            warnings.warn(message, RuntimeWarning, stacklevel=4)
            emit("warning", key, error=message)
        for done, key in enumerate(plan.skipped, start=1):
            emit("skipped", key, done=done)
    finally:
        log.close()


def _run_resumable(
    cells: list[Cell],
    manifest_dir: str | os.PathLike,
    max_workers: int | None,
    match_git_sha: bool,
    force: bool,
    on_event: Callable[[ProgressEvent], None] | None,
) -> tuple[dict, ResumePlan]:
    """Scan, skip every matched cell, run the rest through
    :func:`~repro.sim.cells.run_cells`, and merge in cell order.

    The phases are traced to ``spans.jsonl``: a ``job`` root span
    wrapping a ``resume-scan`` span (manifest matching + skip events)
    and a ``run-grid`` span under which ``run_cells`` nests its own
    grid, pack and cell spans — ``repro obs trace <dir>`` shows where a
    resumed sweep's wall time went.
    """
    tracer = SpanTracer.for_dir(manifest_dir)
    workloads = ",".join(dict.fromkeys(cell.workload for cell in cells))
    try:
        with tracer.span("job", kind=grid_kind(cells), workload=workloads):
            with tracer.span("resume-scan") as scan_span:
                report = check_resume_substrate(manifest_dir, force=force)
                plan = plan_resume(cells, report.manifests, match_git_sha)
                _emit_scan_events(plan, report.manifests, manifest_dir, on_event)
                scan_span.set("skipped", len(plan.skipped))
                scan_span.set("to_run", len(plan.to_run))
            fresh: dict = {}
            if plan.to_run:
                pending = set(plan.to_run)
                with tracer.span("run-grid", cells=len(plan.to_run)):
                    fresh = run_cells(
                        [cell for cell in cells if cell.key in pending],
                        max_workers=max_workers,
                        manifest_dir=manifest_dir,
                        on_event=on_event,
                    )
    finally:
        tracer.close()
    results = {
        cell.key: plan.skipped[cell.key] if cell.key in plan.skipped else fresh[cell.key]
        for cell in cells
    }
    return results, plan


def run_resumable_matrix(
    trace,
    factories: dict,
    geometry: CacheGeometry,
    manifest_dir: str | os.PathLike,
    timing=None,
    engine: str = "vector",
    max_workers: int | None = None,
    window_size: int | None = None,
    match_git_sha: bool = False,
    force: bool = False,
    on_event: Callable[[ProgressEvent], None] | None = None,
) -> tuple[dict, ResumePlan]:
    """A :func:`repro.sim.parallel.run_matrix` that resumes from manifests.

    Scans ``manifest_dir`` (refusing corrupt state unless ``force``),
    skips every cell whose id a manifest records (emitting ``skipped``
    events), runs the remainder with the same manifest directory, and
    merges — preserving the original factory order. The merged results
    are bit-identical to an uninterrupted run for all manifest-persisted
    fields; resumed cells' ``extra`` carries only the windowed
    time-series (transient driver extras like PDP's ``pd_history`` exist
    only on freshly run cells). Returns ``(results, plan)``.
    """
    cells = [
        Cell(
            key,
            factory,
            (trace,),
            geometry,
            timing=timing,
            engine=engine,
            window_size=window_size,
        )
        for key, factory in factories.items()
    ]
    return _run_resumable(
        cells, manifest_dir, max_workers, match_git_sha, force, on_event
    )


def run_resumable_mix_matrix(
    mixes: dict,
    factories: dict,
    geometry: CacheGeometry,
    manifest_dir: str | os.PathLike,
    timing=None,
    singles: dict | None = None,
    engine: str = "fast",
    max_workers: int | None = None,
    match_git_sha: bool = False,
    force: bool = False,
    on_event: Callable[[ProgressEvent], None] | None = None,
) -> tuple[dict, ResumePlan]:
    """A :func:`repro.sim.parallel.run_mix_matrix` that resumes from
    manifests (the shared-LLC counterpart of
    :func:`run_resumable_matrix`; a mix cell's id covers the
    fingerprint of its round-robin interleaved trace). Returns
    ``(results, plan)``.
    """
    cells = mix_cells(mixes, factories, geometry, timing, singles, engine)
    return _run_resumable(
        cells, manifest_dir, max_workers, match_git_sha, force, on_event
    )


def _matching_explore_manifest(
    report: ManifestLoadReport, fingerprint: str, config: dict
) -> Manifest | None:
    """The namespace's ``kind="explore"`` manifest satisfying a predict
    cell (same trace fingerprint, same design-space config), or None."""
    for manifest in report.manifests:
        if manifest.kind != "explore":
            continue
        if manifest.trace_fingerprint != fingerprint:
            continue
        if all(manifest.config.get(key) == value for key, value in config.items()):
            return manifest
    return None


def execute_predict(
    spec,
    manifest_dir: str | os.PathLike,
    on_event: Callable[[ProgressEvent], None] | None = None,
) -> dict:
    """Run one ``predict`` spec: the analytical explorer with resume.

    The cell identity is (trace fingerprint, design-space config): when
    the namespace already holds a ``kind="explore"`` manifest matching
    both, the pass is skipped and the frontier reloaded from it —
    profiling is cheap but not free, and skip-on-resume keeps predict
    jobs idempotent like their simulation siblings. Returns the usual
    summary dict plus ``frontier`` (the ranked geometry dicts) and
    ``followups`` (``top_k`` single-cell matrix specs as dicts, ready
    for :meth:`SweepSpec.from_dict` — the daemon auto-submits them).
    """
    from repro.explore.explorer import DEFAULT_SETS, DEFAULT_WAYS, explore
    from repro.service.jobs import load_matrix_source, predict_followup_specs

    spec.validate()
    report = check_resume_substrate(manifest_dir, force=spec.force)
    trace = load_matrix_source(spec)
    sets = tuple(spec.explore_sets) or DEFAULT_SETS
    ways = tuple(spec.explore_ways) or DEFAULT_WAYS
    config = {
        "sets": sorted(set(int(s) for s in sets)),
        "ways": sorted(set(int(w) for w in ways)),
        "pd_max": spec.pd_max,
        "pd_step": spec.pd_step,
        "d_max": spec.d_max,
        "line_size": spec.line_size,
        "model_variant": "default",
    }
    reporter = ProgressReporter(1, on_event, label="predict")
    started = perf_counter()
    existing = None
    if any(m.kind == "explore" for m in report.manifests):
        fingerprint = fingerprint_source(trace)
        existing = _matching_explore_manifest(report, fingerprint, config)
    if existing is not None:
        if on_event is not None:
            on_event(
                ProgressEvent(
                    kind="skipped",
                    key="explore",
                    done=1,
                    total=1,
                    elapsed_s=perf_counter() - started,
                )
            )
        frontier = list(existing.extra.get("frontier", []))
        skipped, ran = 1, 0
    else:
        reporter.started("explore")
        result = explore(
            trace,
            sets=sets,
            ways=ways,
            pd_max=spec.pd_max,
            pd_step=spec.pd_step,
            d_max=spec.d_max,
            line_size=spec.line_size,
            manifest_dir=manifest_dir,
        )
        reporter.finished("explore")
        frontier = [
            {
                "num_sets": p.num_sets,
                "ways": p.ways,
                "capacity_bytes": p.capacity_bytes,
                "best_pd": p.best_pd,
                "best_hit_rate": round(p.best_hit_rate, 9),
                "confidence": p.confidence,
            }
            for p in result.frontier
        ]
        skipped, ran = 0, 1
    followups = predict_followup_specs(spec, frontier) if spec.top_k else []
    return {
        "kind": "predict",
        "total_cells": 1,
        "skipped_cells": skipped,
        "ran_cells": ran,
        "cells": 1,
        "frontier": frontier,
        "followups": [f.to_dict() for f in followups],
    }


def execute_spec(
    spec,
    manifest_dir: str | os.PathLike,
    on_event: Callable[[ProgressEvent], None] | None = None,
) -> dict:
    """Run one :class:`~repro.service.jobs.SweepSpec` with resume.

    The synchronous job body the service worker runs in a thread; also
    directly usable as a library entry point. Returns a summary dict
    (``kind``, ``total_cells``, ``skipped_cells``, ``ran_cells``).
    Simulation failures propagate (after the grid completes its other
    cells and writes its sweep manifest — the ``run_matrix`` contract),
    as does :class:`CorruptManifestError`. ``predict`` specs route to
    :func:`execute_predict`, whose summary additionally carries the
    predicted frontier and any follow-up simulation specs.
    """
    from repro.service.jobs import (
        load_matrix_source,
        load_mix_traces,
        policy_factories,
        spec_geometry,
    )

    if spec.kind == "predict":
        return execute_predict(spec, manifest_dir, on_event)
    spec.validate()
    factories = policy_factories(spec)
    geometry = spec_geometry(spec)
    max_workers = None if spec.workers == 0 else spec.workers
    if spec.kind == "matrix":
        trace = load_matrix_source(spec)
        results, plan = run_resumable_matrix(
            trace,
            factories,
            geometry,
            manifest_dir,
            engine=spec.engine,
            max_workers=max_workers,
            window_size=spec.window_size,
            match_git_sha=spec.match_git_sha,
            force=spec.force,
            on_event=on_event,
        )
    else:
        mixes = load_mix_traces(spec)
        engine = "fast" if spec.engine == "vector" else spec.engine
        results, plan = run_resumable_mix_matrix(
            mixes,
            factories,
            geometry,
            manifest_dir,
            engine=engine,
            max_workers=max_workers,
            match_git_sha=spec.match_git_sha,
            force=spec.force,
            on_event=on_event,
        )
    return {
        "kind": spec.kind,
        "total_cells": plan.total,
        "skipped_cells": len(plan.skipped),
        "ran_cells": len(plan.to_run),
        "cells": len(results),
    }


__all__ = [
    "CorruptManifestError",
    "ResumePlan",
    "check_resume_substrate",
    "execute_predict",
    "execute_spec",
    "multi_core_result_from_manifest",
    "plan_resume",
    "run_resumable_matrix",
    "run_resumable_mix_matrix",
    "single_core_result_from_manifest",
]
