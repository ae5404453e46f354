"""Parallel sweep runner: worker resolution, equivalence, fallbacks."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.memory.cache import CacheGeometry
from repro.policies.lru import LRUPolicy
from repro.policies.rrip import DRRIPPolicy
from repro.policies.ta_drrip import TADRRIPPolicy
from repro.sim.parallel import (
    ENV_MAX_WORKERS,
    resolve_max_workers,
    run_matrix,
    run_mix_matrix,
)
from repro.sim.runner import compare_policies, sweep_static_pd
from repro.traces.trace import Trace

GEOMETRY = CacheGeometry(num_sets=16, ways=16)
PD_GRID = list(range(16, 144, 16))  # 8 points


class ExplodingPolicy(LRUPolicy):
    """Raises from inside the simulation — a stand-in for a policy bug."""

    def on_fill(self, set_index, way, access):
        raise RuntimeError("policy exploded")


@pytest.fixture(scope="module")
def trace() -> Trace:
    rng = np.random.default_rng(5)
    hot = rng.integers(0, 400, size=6000)
    cold = rng.integers(400, 20_000, size=6000)
    addresses = np.where(rng.random(6000) < 0.6, hot, cold)
    return Trace(addresses, name="parallel-test")


def _summaries(results):
    return {key: (r.hits, r.misses, r.bypasses) for key, r in results.items()}


def test_resolve_max_workers(monkeypatch):
    monkeypatch.delenv(ENV_MAX_WORKERS, raising=False)
    assert resolve_max_workers(4) == 4
    assert resolve_max_workers(0) == 1
    assert resolve_max_workers() >= 1
    monkeypatch.setenv(ENV_MAX_WORKERS, "3")
    assert resolve_max_workers() == 3
    assert resolve_max_workers(2) == 2  # explicit argument beats the env
    monkeypatch.setenv(ENV_MAX_WORKERS, "lots")
    with pytest.raises(ValueError, match="REPRO_MAX_WORKERS"):
        resolve_max_workers()


def test_parallel_sweep_matches_serial(trace):
    assert len(PD_GRID) >= 8
    serial = sweep_static_pd(trace, GEOMETRY, PD_GRID, bypass=True)
    parallel = sweep_static_pd(
        trace, GEOMETRY, PD_GRID, bypass=True, max_workers=3
    )
    assert list(parallel) == PD_GRID  # insertion order preserved
    assert _summaries(parallel) == _summaries(serial)


def test_parallel_sweep_accepts_trace_stream(trace, tmp_path):
    """A chunked TraceStream source sweeps identically to the in-memory
    trace: the parent stream-copies it to a native payload once and the
    workers re-open it chunked (O(chunk) per process)."""
    from repro.traces.formats import open_trace, write_stream
    from repro.traces.stream import as_stream

    path = tmp_path / "payload.trz"
    write_stream(as_stream(trace), path)
    stream = open_trace(path, chunk_size=1_024)
    serial = sweep_static_pd(trace, GEOMETRY, PD_GRID[:4], bypass=True)
    streamed = sweep_static_pd(
        stream, GEOMETRY, PD_GRID[:4], bypass=True, max_workers=2
    )
    assert _summaries(streamed) == {
        pd: _summaries(serial)[pd] for pd in PD_GRID[:4]
    }


def test_parallel_compare_matches_serial(trace):
    factories = {"lru": LRUPolicy, "drrip": DRRIPPolicy}
    serial = compare_policies(trace, factories, GEOMETRY)
    parallel = compare_policies(trace, factories, GEOMETRY, max_workers=2)
    assert _summaries(parallel) == _summaries(serial)


def test_unpicklable_factory_falls_back_to_serial(trace):
    # lambdas cannot cross processes; two cells so the pool is attempted
    factories = {"lru": lambda: LRUPolicy(), "drrip": lambda: DRRIPPolicy()}
    with pytest.warns(RuntimeWarning, match="running serially"):
        results = run_matrix(trace, factories, GEOMETRY, max_workers=2)
    reference = compare_policies(
        trace, {"lru": LRUPolicy, "drrip": DRRIPPolicy}, GEOMETRY
    )
    assert _summaries(results) == _summaries(reference)


def test_serial_fallback_emits_warning_event_and_manifest_workers(trace, tmp_path):
    """The silent-fallback bug: degrading to serial must be loud — a
    RuntimeWarning, a ``warning`` progress event, and the requested vs
    effective worker counts recorded in the sweep manifest."""
    from repro.obs.manifest import load_manifests

    events = []
    factories = {"lru": lambda: LRUPolicy(), "drrip": lambda: DRRIPPolicy()}
    with pytest.warns(RuntimeWarning, match="not picklable"):
        run_matrix(
            trace, factories, GEOMETRY, max_workers=4,
            manifest_dir=tmp_path, on_event=events.append,
        )
    warnings_seen = [e for e in events if e.kind == "warning"]
    assert len(warnings_seen) == 1
    assert "4 workers" in warnings_seen[0].error
    sweep = [m for m in load_manifests(tmp_path) if m.kind == "matrix"][0]
    assert sweep.config["workers_requested"] == 4
    assert sweep.config["workers_effective"] == 1


def test_pooled_matrix_records_effective_workers(trace, tmp_path):
    """The healthy pooled path records effective == min(requested, cells)
    and emits no warning events."""
    from repro.obs.manifest import load_manifests

    events = []
    factories = {"lru": LRUPolicy, "drrip": DRRIPPolicy}
    run_matrix(
        trace, factories, GEOMETRY, max_workers=3,
        manifest_dir=tmp_path, on_event=events.append,
    )
    assert [e for e in events if e.kind == "warning"] == []
    sweep = [m for m in load_manifests(tmp_path) if m.kind == "matrix"][0]
    assert sweep.config["workers_requested"] == 3
    assert sweep.config["workers_effective"] == 2  # capped by 2 cells


def test_stream_sweep_manifest_records_fingerprint(trace, tmp_path):
    """The fingerprint-hole bug: a stream-sourced sweep manifest must
    carry the chunk-size-invariant trace fingerprint, equal to the
    in-memory trace's digest, not None."""
    from repro.obs.manifest import load_manifests, trace_fingerprint
    from repro.traces.formats import open_trace, write_stream
    from repro.traces.stream import as_stream

    path = tmp_path / "payload.trz"
    write_stream(as_stream(trace), path)
    out = tmp_path / "manifests"
    run_matrix(
        open_trace(path), {"lru": LRUPolicy}, GEOMETRY,
        max_workers=1, manifest_dir=out,
    )
    sweep = [m for m in load_manifests(out) if m.kind == "matrix"][0]
    assert sweep.trace_fingerprint == trace_fingerprint(trace)


def test_runner_delegates_to_parallel(trace):
    serial = sweep_static_pd(trace, GEOMETRY, PD_GRID[:3])
    delegated = sweep_static_pd(trace, GEOMETRY, PD_GRID[:3], max_workers=2)
    assert _summaries(delegated) == _summaries(serial)


def test_engines_agree_through_matrix(trace):
    factories = {"lru": LRUPolicy}
    fast = run_matrix(trace, factories, GEOMETRY, max_workers=1, engine="fast")
    ref = run_matrix(trace, factories, GEOMETRY, max_workers=1, engine="reference")
    assert _summaries(fast) == _summaries(ref)


@pytest.mark.parametrize("max_workers", [1, 2])
def test_worker_simulation_error_propagates(trace, max_workers):
    """Regression: a genuine simulation error raised inside a worker must
    surface to the caller — not be swallowed by a silent serial re-run
    (which would both mask the bug and double the runtime)."""
    factories = {"boom": ExplodingPolicy, "lru": LRUPolicy}
    with pytest.raises(RuntimeError, match="policy exploded"):
        run_matrix(trace, factories, GEOMETRY, max_workers=max_workers)


@pytest.mark.parametrize("max_workers", [1, 2])
def test_progress_events_ordered(trace, max_workers):
    """Every task's started event precedes its finished event, and the
    done counter is monotonic — also under the process pool, where
    completions arrive via as_completed."""
    events = []
    factories = {"lru": LRUPolicy, "drrip": DRRIPPolicy}
    run_matrix(
        trace, factories, GEOMETRY, max_workers=max_workers, on_event=events.append
    )
    kinds = [(e.kind, e.key) for e in events]
    for key in factories:
        assert kinds.count(("started", key)) == 1
        assert kinds.count(("finished", key)) == 1
        assert kinds.index(("started", key)) < kinds.index(("finished", key))
    dones = [e.done for e in events]
    assert dones == sorted(dones)
    assert events[-1].done == events[-1].total == len(factories)


def test_run_matrix_manifest_dir_writes_cells_and_events(trace, tmp_path):
    from repro.obs.manifest import load_manifests
    from repro.obs.trace_log import EVENTS_FILENAME, read_events

    factories = {"lru": LRUPolicy, "drrip": DRRIPPolicy}
    run_matrix(trace, factories, GEOMETRY, max_workers=2, manifest_dir=tmp_path)
    manifests = load_manifests(tmp_path)
    cells = [m for m in manifests if m.kind == "llc"]
    sweeps = [m for m in manifests if m.kind == "matrix"]
    assert sorted(m.label for m in cells) == ["drrip", "lru"]
    assert len(sweeps) == 1
    assert {t["status"] for t in sweeps[0].tasks} == {"finished"}
    events = read_events(tmp_path / EVENTS_FILENAME)
    assert sum(1 for e in events if e["kind"] == "finished") == len(factories)


def _mixes() -> dict[str, list[Trace]]:
    def thread_trace(seed: int, n: int) -> Trace:
        rng = np.random.default_rng(seed)
        hot = rng.integers(0, 100, size=n)
        cold = rng.integers(100, 4000, size=n)
        addresses = np.where(rng.random(n) < 0.5, hot, cold)
        return Trace(addresses, name=f"t{seed}")

    return {
        "mix0": [thread_trace(1, 900), thread_trace(2, 700)],
        "mix1": [thread_trace(3, 800), thread_trace(4, 800)],
    }


def _mix_summaries(results):
    return {
        key: (
            [(t.accesses, t.hits, t.misses, t.bypasses) for t in r.threads],
            r.weighted,
            r.throughput,
            r.hmean,
        )
        for key, r in results.items()
    }


def test_run_mix_matrix_parallel_matches_serial():
    mixes = _mixes()
    factories = {
        "lru": LRUPolicy,
        "ta-drrip": partial(TADRRIPPolicy, num_threads=2),
    }
    serial = run_mix_matrix(mixes, factories, GEOMETRY, max_workers=1)
    parallel = run_mix_matrix(mixes, factories, GEOMETRY, max_workers=2)
    assert list(parallel) == [
        (mix, policy) for mix in mixes for policy in factories
    ]
    assert _mix_summaries(parallel) == _mix_summaries(serial)


def test_run_mix_matrix_precomputed_singles():
    mixes = _mixes()
    singles = {"mix0": [1.0, 1.0], "mix1": [1.0, 1.0]}
    results = run_mix_matrix(
        mixes, {"lru": LRUPolicy}, GEOMETRY, singles=singles, max_workers=2
    )
    assert all(r.extra["singles"] == [1.0, 1.0] for r in results.values())
    with pytest.raises(ValueError, match="singles"):
        run_mix_matrix(
            mixes, {"lru": LRUPolicy}, GEOMETRY, singles={"mix0": [1.0, 1.0]}
        )


def test_run_mix_matrix_unpicklable_falls_back_to_serial():
    mixes = _mixes()
    lambdas = {"lru": lambda: LRUPolicy()}  # lambdas cannot cross processes
    with pytest.warns(RuntimeWarning, match="running serially"):
        results = run_mix_matrix(mixes, lambdas, GEOMETRY, max_workers=2)
    reference = run_mix_matrix(mixes, {"lru": LRUPolicy}, GEOMETRY, max_workers=1)
    assert _mix_summaries(results) == _mix_summaries(reference)


@pytest.mark.parametrize("max_workers", [1, 2])
def test_run_mix_matrix_worker_error_propagates(max_workers):
    factories = {"boom": ExplodingPolicy}
    with pytest.raises(RuntimeError, match="policy exploded"):
        run_mix_matrix(_mixes(), factories, GEOMETRY, max_workers=max_workers)


class TestWorkerTelemetry:
    """Counters recorded inside pool workers must reach the parent sink.

    Before the per-task snapshot plumbing, pooled sweeps silently lost
    every counter incremented in a worker process: the kernels recorded
    into the *worker's* ``TELEMETRY`` global and the parent's stayed
    empty. Each task now ships its snapshot back with the result and the
    parent merges it (and embeds the merged totals in the sweep
    manifest).
    """

    @pytest.fixture(autouse=True)
    def _clean_telemetry(self):
        from repro.obs.telemetry import TELEMETRY

        TELEMETRY.reset()
        TELEMETRY.enable()
        yield
        TELEMETRY.disable()
        TELEMETRY.reset()

    def test_pooled_matrix_counters_reach_parent(self, trace):
        from repro.obs.telemetry import TELEMETRY

        factories = {"lru": LRUPolicy, "drrip": DRRIPPolicy}
        run_matrix(trace, factories, GEOMETRY, max_workers=2)
        # Under the default vector engine, LRU runs the columnar kernel
        # and DRRIP falls back to the fast path; both tiers count.
        accesses = TELEMETRY.counters.get(
            "fastpath.accesses", 0
        ) + TELEMETRY.counters.get("columnar.accesses", 0)
        assert accesses == len(trace) * len(factories)

    def test_serial_and_pooled_totals_agree(self, trace):
        from repro.obs.telemetry import TELEMETRY

        factories = {"lru": LRUPolicy, "drrip": DRRIPPolicy}
        run_matrix(trace, factories, GEOMETRY, max_workers=1)
        serial = dict(TELEMETRY.counters)
        TELEMETRY.reset()
        run_matrix(trace, factories, GEOMETRY, max_workers=2)
        assert dict(TELEMETRY.counters) == serial

    def test_sweep_manifest_embeds_merged_telemetry(self, trace, tmp_path):
        from repro.obs.manifest import load_manifests

        run_matrix(
            trace, {"lru": LRUPolicy}, GEOMETRY, max_workers=2,
            manifest_dir=tmp_path,
        )
        sweep = [m for m in load_manifests(tmp_path) if m.kind == "matrix"]
        assert len(sweep) == 1
        counters = sweep[0].telemetry.get("counters", {})
        assert counters.get("columnar.accesses", 0) >= len(trace)

    def test_merge_snapshot_sums_counters_and_timers(self):
        from repro.obs.telemetry import Telemetry

        sink = Telemetry(enabled=True)
        sink.count("a", 2)
        sink.record("t", 0.5)
        sink.merge_snapshot(
            {"counters": {"a": 3, "b": 1},
             "timers": {"t": {"calls": 2, "total_s": 1.0,
                              "min_s": 0.4, "max_s": 0.6},
                        "u": {"calls": 1, "total_s": 0.25,
                              "min_s": 0.25, "max_s": 0.25}}}
        )
        assert sink.counters == {"a": 5, "b": 1}
        assert sink.timers == {"t": [3, 1.5, 0.4, 0.6],
                               "u": [1, 0.25, 0.25, 0.25]}

    def test_merge_snapshot_tolerates_pre_min_max_payloads(self):
        from repro.obs.telemetry import Telemetry

        sink = Telemetry(enabled=True)
        # PR-9-era snapshots carry only calls/total: the mean stands in
        # for the missing bounds so merged min/max stay conservative.
        sink.merge_snapshot(
            {"counters": {}, "timers": {"t": {"calls": 2, "total_s": 1.0}}}
        )
        assert sink.timers == {"t": [2, 1.0, 0.5, 0.5]}

    def test_merge_snapshot_works_while_disabled(self):
        from repro.obs.telemetry import Telemetry

        sink = Telemetry(enabled=False)
        sink.merge_snapshot({"counters": {"a": 7}, "timers": {}})
        assert sink.counters == {"a": 7}
