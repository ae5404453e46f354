"""Simulation drivers: configs, single-core and multi-core runs, metrics."""

from repro.sim.cells import Cell, run_cells
from repro.sim.config import ExperimentConfig, MachineConfig
from repro.sim.metrics import (
    geometric_mean,
    harmonic_mean_normalized_ipc,
    throughput,
    weighted_ipc,
)
from repro.sim.multi_core import MultiCoreResult, run_shared_llc, single_thread_baselines
from repro.sim.parallel import resolve_max_workers, run_matrix, run_mix_matrix
from repro.sim.runner import compare_policies, sweep_static_pd
from repro.sim.single_core import ENGINES, SingleCoreResult, run_hierarchy, run_llc

__all__ = [
    "Cell",
    "ENGINES",
    "ExperimentConfig",
    "MachineConfig",
    "MultiCoreResult",
    "SingleCoreResult",
    "compare_policies",
    "geometric_mean",
    "harmonic_mean_normalized_ipc",
    "resolve_max_workers",
    "run_cells",
    "run_hierarchy",
    "run_llc",
    "run_matrix",
    "run_mix_matrix",
    "run_shared_llc",
    "single_thread_baselines",
    "sweep_static_pd",
    "throughput",
    "weighted_ipc",
]
