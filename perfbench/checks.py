"""Reference-engine recomputation for the correctness check.

Every cell a workload returns must carry the same simulated statistics
as ``engine="reference"`` on the same trace. The reference engine is the
per-access specification loop and is slow, so each run computes it once
per trace (keyed by the trace's content digest) on a small spawn pool,
after the timed interval. The worker functions live here, in a module of
their own, so spawned workers can import them by name.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from multiprocessing import resource_tracker

#: Worker-process state installed by the pool initializer.
_SHARED: dict = {}

#: Reference workers; never wider than the 2-CPU box the benchmark sizes for.
REFERENCE_WORKERS = 2


def trace_digest(trace) -> str:
    """Content digest of a trace's columns, name and dilution."""
    digest = hashlib.sha256()
    for column in (trace.addresses, trace.pcs, trace.thread_ids):
        digest.update(column.tobytes())
    digest.update(f"{trace.name}|{trace.instructions_per_access!r}".encode())
    return digest.hexdigest()


def single_stats(result) -> tuple[int, int, int, int]:
    """The statistics a single-core cell must reproduce exactly."""
    return (result.hits, result.misses, result.bypasses, result.evictions)


def shared_stats(result) -> tuple:
    """Per-thread (accesses, hits, misses, bypasses) of a shared-LLC cell."""
    return tuple(
        (thread.accesses, thread.hits, thread.misses, thread.bypasses)
        for thread in result.threads
    )


def _install(state: dict) -> None:
    _SHARED.update(state)


def _reference_llc(key, factory, geometry, window_size):
    from repro.sim.single_core import run_llc

    result = run_llc(
        _SHARED["trace"],
        factory(),
        geometry,
        engine="reference",
        window_size=window_size,
    )
    return key, single_stats(result)


def _reference_shared(mix_key, policy_key, factory, geometry, timing, singles):
    from repro.sim.multi_core import run_shared_llc

    result = run_shared_llc(
        _SHARED["mixes"][mix_key],
        factory(),
        geometry,
        timing=timing,
        singles=singles,
        engine="reference",
    )
    return (mix_key, policy_key), shared_stats(result)


def _reference_baselines(mix_key, geometry, timing):
    from repro.sim.multi_core import single_thread_baselines

    return mix_key, tuple(
        single_thread_baselines(
            _SHARED["mixes"][mix_key], geometry, timing=timing, engine="reference"
        )
    )


@contextmanager
def _pool(state: dict):
    try:
        with ProcessPoolExecutor(
            max_workers=REFERENCE_WORKERS,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_install,
            initargs=(state,),
        ) as pool:
            yield pool
    finally:
        # A spawn pool also starts multiprocessing's resource tracker,
        # which would otherwise outlive the benchmark: stop and reap it.
        resource_tracker._resource_tracker._stop()


def _gather(pool: ProcessPoolExecutor, calls: list) -> dict:
    futures = [pool.submit(fn, *args) for fn, *args in calls]
    return dict(future.result() for future in futures)


def reference_single(trace, factories: dict, geometry, window_size=None) -> dict:
    """{key: (hits, misses, bypasses, evictions)} under the reference engine."""
    with _pool({"trace": trace}) as pool:
        return _gather(
            pool,
            [
                (_reference_llc, key, factory, geometry, window_size)
                for key, factory in factories.items()
            ],
        )


def reference_shared(mixes: dict, factories: dict, geometry, timing, singles: dict):
    """Reference per-thread stats per (mix, policy) cell, and reference
    stand-alone baselines per mix."""
    with _pool({"mixes": mixes}) as pool:
        cells = _gather(
            pool,
            [
                (_reference_shared, mix_key, policy_key, factory, geometry, timing,
                 singles[mix_key])
                for mix_key in mixes
                for policy_key, factory in factories.items()
            ],
        )
        baselines = _gather(
            pool, [(_reference_baselines, mix_key, geometry, timing) for mix_key in mixes]
        )
    return cells, baselines
