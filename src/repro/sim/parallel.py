"""The sweep grids of the paper's figures, built as cells.

:func:`run_matrix` (one trace x policy factories: Fig. 4's static-PD
sweep, Fig. 10's policy comparison) and :func:`run_mix_matrix` (mixes x
shared-LLC policy factories: Fig. 12) turn their arguments into
:class:`repro.sim.cells.Cell` lists and run them on the one executor,
:func:`repro.sim.cells.run_cells`, which owns parallelism, payload
packing, the serial fallback, progress events and manifests — see that
module for the contracts. Their sweep manifests keep the kinds
``"matrix"`` and ``"mix_matrix"``.
"""

from __future__ import annotations

import os
from collections.abc import Callable

from repro.memory.cache import CacheGeometry
from repro.memory.columnar import merge_shard_parts, set_shardable
from repro.memory.timing import TimingModel
from repro.obs.progress import ProgressEvent
from repro.sim.cells import ENV_MAX_WORKERS, Cell, resolve_max_workers, run_cells
from repro.sim.multi_core import MultiCoreResult
from repro.traces.stream import TraceStream
from repro.traces.trace import Trace


def run_matrix(
    trace: Trace | TraceStream,
    factories: dict,
    geometry: CacheGeometry,
    timing: TimingModel | None = None,
    max_workers: int | None = None,
    engine: str = "vector",
    manifest_dir: str | os.PathLike | None = None,
    on_event: Callable[[ProgressEvent], None] | None = None,
    set_partitions: int | None = None,
    window_size: int | None = None,
) -> dict:
    """Run a trace x policy-factory matrix, in parallel when possible.

    Args:
        trace: the access stream every cell simulates — an in-memory
            :class:`Trace`, or a chunked :class:`TraceStream` (e.g. an
            external trace file): the stream is copied once to a native
            payload and every worker re-opens it chunked, so even the
            parallel path stays O(chunk) per process.
        factories: {key: zero-arg policy factory}; keys are preserved in
            the result dict, insertion order retained.
        geometry / timing / engine: forwarded to :func:`run_llc`.
        max_workers / manifest_dir / on_event: the
            :func:`repro.sim.cells.run_cells` contract; the sweep
            manifest kind is ``"matrix"``. Set-partitioned cells write
            no per-cell manifests (a merged cell has no single worker
            run to describe); the sweep manifest still records every
            shard task.
        set_partitions: when > 1 (vector engine, in-memory trace only),
            split each cell whose policy is
            :func:`repro.memory.columnar.set_shardable` into that many
            set-partitioned shard cells — shard ``k`` simulates only the
            sets with ``set_index % K == k`` — and merge the per-shard
            statistics and windowed time-series bit-identically to the
            unsharded run. Cells whose policy couples sets (e.g. PDP
            with a dynamic ``pd_engine``) run unsharded. Values are
            clamped to ``geometry.num_sets``.
        window_size: when set, record a windowed time-series of this
            window size for every cell (``result.extra["timeseries"]``),
            sharded or not.

    Returns:
        {key: SingleCoreResult} for every entry in ``factories``.

    Raises:
        ValueError: ``set_partitions`` with a non-vector engine or a
            :class:`TraceStream` source (shard slicing needs the
            materialized address column).
        Whatever the first failing simulation raised (after the
        remaining cells complete and the sweep manifest is written).
    """
    partitions = 0
    if set_partitions is not None:
        if set_partitions < 1:
            raise ValueError(f"set_partitions must be >= 1, got {set_partitions}")
        if set_partitions > 1:
            if engine != "vector":
                raise ValueError(
                    "set_partitions requires engine='vector' "
                    f"(got engine={engine!r})"
                )
            if isinstance(trace, TraceStream):
                raise ValueError("set_partitions requires an in-memory Trace source")
            partitions = min(set_partitions, geometry.num_sets)
    common = dict(
        traces=(trace,),
        geometry=geometry,
        timing=timing,
        engine=engine,
        window_size=window_size,
    )
    cells = []
    sharded = []
    for key, factory in factories.items():
        # Shard only the cells whose policy state is provably per-set;
        # everything else (dynamic-PD samplers, unknown policies) keeps
        # the exact unsharded path.
        if partitions > 1 and set_shardable(factory()):
            sharded.append(key)
            cells += [
                Cell((key, shard), factory, shard=(shard, partitions), **common)
                for shard in range(partitions)
            ]
        else:
            cells.append(Cell(key, factory, **common))
    results = run_cells(
        cells, max_workers=max_workers, manifest_dir=manifest_dir, on_event=on_event
    )
    for key in sharded:
        results[key] = merge_shard_parts(
            [results.pop((key, shard)) for shard in range(partitions)],
            trace.name,
            len(trace),
            trace.instructions_per_access,
            timing or TimingModel(),
            window_size=window_size,
        )
    return {key: results[key] for key in factories}


def mix_cells(
    mixes: dict[str, list[Trace]],
    factories: dict[str, Callable[[], object]],
    geometry: CacheGeometry,
    timing: TimingModel | None = None,
    singles: dict[str, list[float]] | None = None,
    engine: str = "fast",
) -> list[Cell]:
    """The (mix x policy) shared-LLC cells of a Fig. 12 grid, keyed
    ``(mix_key, policy_key)`` in mixes-major order."""
    if singles is not None and set(singles) != set(mixes):
        raise ValueError("singles must provide baselines for exactly the mixes")
    return [
        Cell(
            (mix_key, policy_key),
            factory,
            tuple(traces),
            geometry,
            timing=timing,
            engine=engine,
            kind="shared_llc",
            singles=None if singles is None else tuple(singles[mix_key]),
            name=mix_key,
        )
        for mix_key, traces in mixes.items()
        for policy_key, factory in factories.items()
    ]


def run_mix_matrix(
    mixes: dict[str, list[Trace]],
    factories: dict[str, Callable[[], object]],
    geometry: CacheGeometry,
    timing: TimingModel | None = None,
    singles: dict[str, list[float]] | None = None,
    max_workers: int | None = None,
    engine: str = "fast",
    manifest_dir: str | os.PathLike | None = None,
    on_event: Callable[[ProgressEvent], None] | None = None,
) -> dict[tuple[str, str], MultiCoreResult]:
    """Run a (mix x policy-factory) grid of shared-LLC runs in parallel.

    The multi-core counterpart of :func:`run_matrix`: each cell is one
    :func:`repro.sim.multi_core.run_shared_llc` call. Per-thread traces
    are packed once and memoized per worker process, so an 80-mix x
    4-policy Fig. 12 grid ships each trace a handful of times rather
    than 4x80 times.

    Args:
        mixes: {mix_key: per-thread traces} (private address spaces, as
            fed to ``run_shared_llc``).
        factories: {policy_key: zero-arg factory for a fresh shared-LLC
            policy}; must be picklable for the parallel path.
        singles: optional {mix_key: stand-alone LRU IPCs}. When omitted
            every cell recomputes its mix's baselines — pass precomputed
            values (``single_thread_baselines`` once per mix) to avoid
            the duplicate work.
        max_workers / manifest_dir / on_event: the
            :func:`repro.sim.cells.run_cells` contract; the sweep
            manifest kind is ``"mix_matrix"``.

    Returns:
        {(mix_key, policy_key): MultiCoreResult} for the full grid, in
        mixes-major insertion order.

    Raises:
        Whatever the first failing simulation raised (after the
        remaining cells complete and the sweep manifest is written).
    """
    cells = mix_cells(mixes, factories, geometry, timing, singles, engine)
    return run_cells(
        cells, max_workers=max_workers, manifest_dir=manifest_dir, on_event=on_event
    )


__all__ = [
    "ENV_MAX_WORKERS",
    "mix_cells",
    "resolve_max_workers",
    "run_matrix",
    "run_mix_matrix",
]
