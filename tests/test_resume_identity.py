"""Resume identity: a resumed cell is the cell that was asked for.

Re-running a namespace must re-run a cell whose policy kwargs or timing
model changed under an unchanged key, and must skip a cell whose only
change is the engine (engines are bit-identical)."""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.memory.cache import CacheGeometry
from repro.memory.timing import TimingModel
from repro.policies.base import make_policy
from repro.service.scheduler import run_resumable_matrix, run_resumable_mix_matrix
from repro.sim.parallel import run_matrix
from repro.traces.trace import Trace

GEOMETRY = CacheGeometry(num_sets=16, ways=4)


def _trace(seed: int = 11, n: int = 3000, name: str | None = None) -> Trace:
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 300, size=n)
    cold = rng.integers(300, 12_000, size=n)
    addresses = np.where(rng.random(n) < 0.6, hot, cold)
    return Trace(addresses, name=name or f"resume-identity-{seed}")


def _pdp(static_pd: int) -> dict:
    return {"pdp": partial(make_policy, "pdp", static_pd=static_pd)}


def _fields(result):
    return (
        result.name,
        result.accesses,
        result.hits,
        result.misses,
        result.bypasses,
        result.instructions,
        result.ipc,
        result.evictions,
    )


class TestResumeIdentity:
    """A resumed cell is the cell that was asked for: the policy's
    kwargs and the timing model are part of its identity, the engine
    is not."""

    def test_changed_policy_kwargs_rerun_under_same_key(self, tmp_path):
        trace = _trace()
        fresh_16 = run_matrix(trace, _pdp(16), GEOMETRY, max_workers=1)["pdp"]
        fresh_200 = run_matrix(trace, _pdp(200), GEOMETRY, max_workers=1)["pdp"]
        assert fresh_16.hits != fresh_200.hits  # the probe can tell them apart
        first, _ = run_resumable_matrix(trace, _pdp(16), GEOMETRY, tmp_path)
        assert _fields(first["pdp"]) == _fields(fresh_16)
        second, plan = run_resumable_matrix(trace, _pdp(200), GEOMETRY, tmp_path)
        assert plan.to_run == ["pdp"] and not plan.skipped
        assert _fields(second["pdp"]) == _fields(fresh_200)

    def test_changed_timing_model_reruns(self, tmp_path):
        trace = _trace()
        slow_memory = TimingModel(memory_latency=400)
        run_resumable_matrix(trace, _pdp(16), GEOMETRY, tmp_path)
        _, same = run_resumable_matrix(
            trace, _pdp(16), GEOMETRY, tmp_path, timing=TimingModel()
        )
        assert same.skipped  # None and the default model are one identity
        results, plan = run_resumable_matrix(
            trace, _pdp(16), GEOMETRY, tmp_path, timing=slow_memory
        )
        assert plan.to_run == ["pdp"]
        fresh = run_matrix(trace, _pdp(16), GEOMETRY, timing=slow_memory, max_workers=1)
        assert _fields(results["pdp"]) == _fields(fresh["pdp"])

    def test_vector_manifest_satisfies_fast_resubmission(self, tmp_path):
        trace = _trace()
        factories = {"lru": partial(make_policy, "lru"), **_pdp(16)}
        run_resumable_matrix(trace, factories, GEOMETRY, tmp_path, engine="vector")
        resumed, plan = run_resumable_matrix(
            trace, factories, GEOMETRY, tmp_path, engine="fast"
        )
        assert not plan.to_run and sorted(plan.skipped) == ["lru", "pdp"]
        fresh = run_matrix(trace, factories, GEOMETRY, engine="fast", max_workers=1)
        for key in factories:
            assert _fields(resumed[key]) == _fields(fresh[key])

    def test_changed_mix_policy_kwargs_rerun(self, tmp_path):
        mixes = {"mix0": [_trace(1, 900, "t1"), _trace(2, 700, "t2")]}

        def factories(step):
            return {"pdp": partial(make_policy, "pd-partition", num_threads=2, step=step)}

        run_resumable_mix_matrix(mixes, factories(16), GEOMETRY, tmp_path)
        _, same = run_resumable_mix_matrix(mixes, factories(16), GEOMETRY, tmp_path)
        assert same.skipped and not same.to_run
        _, changed = run_resumable_mix_matrix(mixes, factories(32), GEOMETRY, tmp_path)
        assert changed.to_run == [("mix0", "pdp")]
