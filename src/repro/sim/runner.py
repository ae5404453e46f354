"""Experiment helpers: static-PD sweeps and policy comparisons."""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from functools import partial

from repro.core.pdp_policy import PDPPolicy
from repro.memory.cache import CacheGeometry
from repro.memory.timing import TimingModel
from repro.sim.parallel import run_matrix
from repro.sim.single_core import SingleCoreResult
from repro.traces.trace import Trace


def sweep_static_pd(
    trace: Trace,
    geometry: CacheGeometry,
    pds: Iterable[int],
    bypass: bool = True,
    n_c: int = 8,
    timing: TimingModel | None = None,
    max_workers: int | None = 1,
    engine: str = "vector",
    manifest_dir: str | os.PathLike | None = None,
    on_event: Callable | None = None,
) -> dict[int, SingleCoreResult]:
    """Run static PDP (SPDP) for each candidate PD (Sec. 2.3).

    A :func:`repro.sim.parallel.run_matrix` grid over one
    ``PDPPolicy(static_pd=pd)`` factory per PD; ``max_workers=1`` (the
    default) runs serially in-process, and ``manifest_dir`` /
    ``on_event`` follow the ``run_matrix`` observability contract.
    """
    factories = {
        pd: partial(PDPPolicy, static_pd=pd, bypass=bypass, n_c=n_c) for pd in pds
    }
    return run_matrix(
        trace,
        factories,
        geometry,
        timing=timing,
        max_workers=max_workers,
        engine=engine,
        manifest_dir=manifest_dir,
        on_event=on_event,
    )


def best_static_pd(
    trace: Trace,
    geometry: CacheGeometry,
    pds: Iterable[int],
    bypass: bool = True,
    n_c: int = 8,
    timing: TimingModel | None = None,
    max_workers: int | None = 1,
    manifest_dir: str | os.PathLike | None = None,
    on_event: Callable | None = None,
) -> tuple[int, SingleCoreResult]:
    """The PD minimizing misses over a sweep, with its result."""
    results = sweep_static_pd(
        trace,
        geometry,
        pds,
        bypass=bypass,
        n_c=n_c,
        timing=timing,
        max_workers=max_workers,
        manifest_dir=manifest_dir,
        on_event=on_event,
    )
    pd = min(results, key=lambda candidate: results[candidate].misses)
    return pd, results[pd]


def compare_policies(
    trace: Trace,
    factories: dict[str, Callable[[], object]],
    geometry: CacheGeometry,
    timing: TimingModel | None = None,
    max_workers: int | None = 1,
    engine: str = "vector",
    manifest_dir: str | os.PathLike | None = None,
    on_event: Callable | None = None,
) -> dict[str, SingleCoreResult]:
    """Run one trace under several policies (fresh instance per run).

    See :func:`sweep_static_pd` for the ``max_workers`` and
    observability contracts.
    """
    return run_matrix(
        trace,
        factories,
        geometry,
        timing=timing,
        max_workers=max_workers,
        engine=engine,
        manifest_dir=manifest_dir,
        on_event=on_event,
    )


def default_pd_candidates(
    associativity: int = 16, d_max: int = 256, step: int = 4
) -> list[int]:
    """PD sweep grid: associativity up to d_max in S_c steps.

    Delegates to :func:`repro.core.pd_grid.pd_grid` — the canonical
    grid shared with the analytical explorer and its cross-validation
    harness, so "within one grid step" means the same thing everywhere.
    """
    from repro.core.pd_grid import pd_grid

    return pd_grid(associativity, d_max=d_max, step=step)


__all__ = [
    "best_static_pd",
    "compare_policies",
    "default_pd_candidates",
    "sweep_static_pd",
]
