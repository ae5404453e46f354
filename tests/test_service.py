"""Sweep service: specs, protocol, job store, resume scheduler, daemon.

The resume tests pin the PR's acceptance contract: an interrupted sweep,
resumed against its per-cell manifests, skips completed cells (visibly —
``skipped`` progress events) and merges to results bit-identical to an
uninterrupted run, including windowed time-series payloads.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.memory.cache import CacheGeometry
from repro.obs.manifest import scan_manifests
from repro.policies.base import make_policy
from repro.service.jobs import JobRecord, JobStore, SpecError, SweepSpec
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    ServiceClient,
    decode_message,
    encode_message,
    service_socket,
)
from repro.service.scheduler import (
    CorruptManifestError,
    run_resumable_matrix,
    run_resumable_mix_matrix,
)
from repro.service.server import SweepService
from repro.sim.parallel import run_matrix
from repro.traces.trace import Trace

REPO_ROOT = Path(__file__).parent.parent
GEOMETRY = CacheGeometry(num_sets=16, ways=4)


def _trace(seed: int = 11, n: int = 3000, name: str | None = None) -> Trace:
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 300, size=n)
    cold = rng.integers(300, 12_000, size=n)
    addresses = np.where(rng.random(n) < 0.6, hot, cold)
    return Trace(addresses, name=name or f"svc-test-{seed}")


def _factories(*names: str) -> dict:
    return {name: partial(make_policy, name) for name in names}


def _cell_fields(result):
    """Every manifest-persisted field of a SingleCoreResult, bitwise."""
    return (
        result.name,
        result.accesses,
        result.hits,
        result.misses,
        result.bypasses,
        result.instructions,
        result.ipc,
        result.evictions,
        result.extra.get("timeseries"),
    )


def _mix_fields(result):
    """Every manifest-persisted field of a MultiCoreResult, bitwise."""
    return (
        result.name,
        [
            (t.accesses, t.hits, t.misses, t.bypasses, t.instructions, t.ipc)
            for t in result.threads
        ],
        result.weighted,
        result.throughput,
        result.hmean,
    )


class TestSweepSpec:
    def test_round_trip(self):
        spec = SweepSpec(
            benchmark="429.mcf",
            policies=["lru", {"key": "pdp8", "name": "pdp", "kwargs": {}}],
            window_size=500,
        )
        spec.validate()
        rebuilt = SweepSpec.from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_policy_items_normalization(self):
        spec = SweepSpec(
            benchmark="429.mcf",
            policies=["lru", {"name": "pdp"}, {"key": "x", "name": "srrip"}],
        )
        assert spec.policy_items() == [
            ("lru", "lru", {}),
            ("pdp", "pdp", {}),
            ("x", "srrip", {}),
        ]

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"kind": "nope"}, "kind"),
            ({"namespace": "a/b", "benchmark": "x", "policies": ["lru"]}, "namespace"),
            ({"namespace": "..", "benchmark": "x", "policies": ["lru"]}, "namespace"),
            ({"policies": ["lru"]}, "exactly one"),
            ({"benchmark": "x", "trace_file": "y", "policies": ["lru"]}, "exactly one"),
            ({"benchmark": "x"}, "at least one policy"),
            ({"kind": "mix_matrix", "policies": ["lru"]}, "mixes"),
            ({"benchmark": "x", "policies": ["lru", "lru"]}, "duplicate"),
            ({"benchmark": "x", "policies": ["lru"], "workers": -1}, "workers"),
            ({"benchmark": "x", "policies": ["lru"], "window_size": 0}, "window_size"),
        ],
    )
    def test_validate_rejects(self, kwargs, match):
        with pytest.raises(SpecError, match=match):
            SweepSpec(**kwargs).validate()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecError, match="unknown spec fields"):
            SweepSpec.from_dict({"benchmark": "x", "surprise": 1})

    def test_unknown_policy_name_fails_fast(self):
        from repro.service.jobs import policy_factories

        spec = SweepSpec(benchmark="x", policies=["not-a-policy"])
        with pytest.raises(SpecError, match="unknown policy"):
            policy_factories(spec)


class TestProtocol:
    def test_encode_decode_round_trip(self):
        payload = {"op": "submit", "spec": {"policies": ["lru"], "length": 1}}
        line = encode_message(payload)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert decode_message(line) == payload

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ProtocolError, match="JSON objects"):
            decode_message(b'["a", "list"]\n')
        with pytest.raises(ProtocolError, match="invalid JSON"):
            decode_message(b"{nope\n")

    def test_encode_rejects_oversized(self):
        with pytest.raises(ProtocolError, match="MAX_LINE_BYTES"):
            encode_message({"blob": "x" * (MAX_LINE_BYTES + 1)})


class TestJobStore:
    def test_save_get_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        record = JobRecord.new(SweepSpec(benchmark="x", policies=["lru"]))
        store.save(record)
        assert store.get(record.job_id) == record
        assert store.get("missing") is None
        # atomic write leaves no temp litter
        assert list((tmp_path / "jobs").glob("*.tmp")) == []

    def test_recover_requeues_running_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        done = JobRecord.new(SweepSpec(benchmark="a", policies=["lru"]))
        done.state = "done"
        running = JobRecord.new(SweepSpec(benchmark="b", policies=["lru"]))
        running.state = "running"
        queued = JobRecord.new(SweepSpec(benchmark="c", policies=["lru"]))
        for record in (done, running, queued):
            store.save(record)
        pending = store.recover()
        assert sorted(r.spec.benchmark for r in pending) == ["b", "c"]
        revived = store.get(running.job_id)
        assert revived.state == "queued" and revived.interrupted


class TestJobTimestamps:
    def test_sub_second_queue_wait_is_fractional(self):
        from repro.obs.manifest import utc_now_iso

        submitted = utc_now_iso()
        time.sleep(0.05)
        started = utc_now_iso()
        wait = SweepService._elapsed_between(submitted, started)
        assert 0.04 <= wait < 1.0

    def test_list_jobs_orders_second_and_millisecond_stamps(self, tmp_path):
        store = JobStore(tmp_path)
        stamps = [
            "2026-01-01T00:00:04.900+00:00",
            "2026-01-01T00:00:05+00:00",  # a record written before ms stamps
            "2026-01-01T00:00:05.100+00:00",
            "2026-01-01T00:00:06+00:00",
        ]
        for stamp in reversed(stamps):
            record = JobRecord.new(SweepSpec(benchmark="x", policies=["lru"]))
            record.submitted_at = stamp
            store.save(record)
        assert [r.submitted_at for r in store.list_jobs()] == stamps


class TestMatrixResume:
    def test_second_run_skips_all_cells_bit_identical(self, tmp_path):
        trace = _trace()
        factories = _factories("lru", "fifo", "srrip")
        events = []
        first, plan1 = run_resumable_matrix(
            trace, factories, GEOMETRY, tmp_path, window_size=800
        )
        second, plan2 = run_resumable_matrix(
            trace, factories, GEOMETRY, tmp_path, window_size=800,
            on_event=events.append,
        )
        assert not plan1.skipped and len(plan1.to_run) == 3
        assert len(plan2.skipped) == 3 and not plan2.to_run
        assert [e.kind for e in events] == ["skipped"] * 3
        assert list(second) == list(first)  # original grid order
        for key in factories:
            assert _cell_fields(second[key]) == _cell_fields(first[key])

    def test_interrupted_sweep_resumes_and_merges_bit_identical(self, tmp_path):
        """The acceptance scenario: cell 2 of 3 dies mid-sweep; the
        retry skips the completed cells and the merged results match an
        uninterrupted reference run bitwise, windows included."""
        trace = _trace()
        reference_dir = tmp_path / "ref"
        resumed_dir = tmp_path / "resumed"
        factories = _factories("lru", "fifo", "srrip")
        reference, _ = run_resumable_matrix(
            trace, factories, GEOMETRY, reference_dir, window_size=800
        )

        class Boom(Exception):
            pass

        def exploding_factory():
            raise Boom("injected cell failure")

        broken = dict(factories)
        broken["fifo"] = exploding_factory
        with pytest.raises(Exception, match="injected cell failure"):
            run_resumable_matrix(
                trace, broken, GEOMETRY, resumed_dir, window_size=800
            )
        survivors = [
            m for m in scan_manifests(resumed_dir).manifests if m.kind == "llc"
        ]
        assert sorted(m.label for m in survivors) == ["lru", "srrip"]

        events = []
        merged, plan = run_resumable_matrix(
            trace, factories, GEOMETRY, resumed_dir, window_size=800,
            on_event=events.append,
        )
        assert sorted(str(k) for k in plan.skipped) == ["lru", "srrip"]
        assert plan.to_run == ["fifo"]
        skipped_keys = sorted(e.key for e in events if e.kind == "skipped")
        assert skipped_keys == ["lru", "srrip"]
        assert list(merged) == list(reference)
        for key in factories:
            assert _cell_fields(merged[key]) == _cell_fields(reference[key])

    def test_fingerprint_mismatch_forces_rerun(self, tmp_path):
        factories = _factories("lru")
        run_resumable_matrix(
            _trace(seed=1, name="same-name"), factories, GEOMETRY, tmp_path
        )
        # same workload name, different content: must not be skipped
        _, plan = run_resumable_matrix(
            _trace(seed=2, name="same-name"), factories, GEOMETRY, tmp_path
        )
        assert not plan.skipped and plan.to_run == ["lru"]

    def test_window_size_mismatch_forces_rerun(self, tmp_path):
        trace = _trace()
        factories = _factories("lru")
        run_resumable_matrix(trace, factories, GEOMETRY, tmp_path, window_size=800)
        _, hit = run_resumable_matrix(
            trace, factories, GEOMETRY, tmp_path, window_size=800
        )
        assert hit.skipped and not hit.to_run
        _, miss = run_resumable_matrix(
            trace, factories, GEOMETRY, tmp_path, window_size=400
        )
        assert not miss.skipped and miss.to_run == ["lru"]

    def test_match_git_sha_gates_resume(self, tmp_path):
        trace = _trace()
        factories = _factories("lru")
        run_resumable_matrix(trace, factories, GEOMETRY, tmp_path)
        # forge the recorded SHA: the cell must re-run under matching
        for path in tmp_path.glob("*.json"):
            data = json.loads(path.read_text())
            if data.get("kind") == "llc":
                data["git_sha"] = "0" * 40
                path.write_text(json.dumps(data))
        _, relaxed = run_resumable_matrix(trace, factories, GEOMETRY, tmp_path)
        assert relaxed.skipped  # default: SHA not part of the identity
        _, strict = run_resumable_matrix(
            trace, factories, GEOMETRY, tmp_path, match_git_sha=True
        )
        assert not strict.skipped and strict.to_run == ["lru"]

    def test_corrupt_manifest_refused_without_force(self, tmp_path):
        trace = _trace()
        factories = _factories("lru")
        run_resumable_matrix(trace, factories, GEOMETRY, tmp_path)
        (tmp_path / "corrupt.json").write_text("{not json")
        with pytest.raises(CorruptManifestError, match="corrupt.json"):
            run_resumable_matrix(trace, factories, GEOMETRY, tmp_path)
        _, plan = run_resumable_matrix(
            trace, factories, GEOMETRY, tmp_path, force=True
        )
        assert plan.skipped and not plan.to_run

    def test_skip_events_reach_events_jsonl(self, tmp_path):
        from repro.obs.trace_log import EVENTS_FILENAME, read_events

        trace = _trace()
        factories = _factories("lru", "fifo")
        run_resumable_matrix(trace, factories, GEOMETRY, tmp_path)
        run_resumable_matrix(trace, factories, GEOMETRY, tmp_path)
        events = read_events(tmp_path / EVENTS_FILENAME)
        skipped = [e["key"] for e in events if e["kind"] == "skipped"]
        assert sorted(skipped) == ["fifo", "lru"]

    def test_resume_ignores_foreign_and_sweep_manifests(self, tmp_path):
        """Sweep-level manifests and other-geometry cells never satisfy
        a cell: only a full identity match skips work."""
        trace = _trace()
        factories = _factories("lru")
        run_matrix(trace, factories, GEOMETRY, manifest_dir=tmp_path)
        other = CacheGeometry(num_sets=32, ways=4)
        _, plan = run_resumable_matrix(trace, factories, other, tmp_path)
        assert not plan.skipped and plan.to_run == ["lru"]


class TestMixResume:
    def _mixes(self):
        return {
            "mix0": [_trace(1, 900, "t1"), _trace(2, 700, "t2")],
            "mix1": [_trace(3, 800, "t3"), _trace(4, 800, "t4")],
        }

    def test_second_run_skips_all_cells_bit_identical(self, tmp_path):
        factories = _factories("lru", "fifo")
        first, plan1 = run_resumable_mix_matrix(
            self._mixes(), factories, GEOMETRY, tmp_path
        )
        second, plan2 = run_resumable_mix_matrix(
            self._mixes(), factories, GEOMETRY, tmp_path
        )
        assert len(plan1.to_run) == 4 and not plan2.to_run
        assert list(second) == list(first)
        for key in first:
            assert _mix_fields(second[key]) == _mix_fields(first[key])

    def test_ragged_remainder_runs_per_cell(self, tmp_path):
        """Deleting one cell's manifest leaves a remainder that is not a
        full sub-grid; resume must re-run exactly that cell."""
        factories = _factories("lru", "fifo")
        first, _ = run_resumable_mix_matrix(
            self._mixes(), factories, GEOMETRY, tmp_path
        )
        victim = str(("mix1", "fifo"))
        for path in tmp_path.glob("*.json"):
            if json.loads(path.read_text()).get("label") == victim:
                path.unlink()
        merged, plan = run_resumable_mix_matrix(
            self._mixes(), factories, GEOMETRY, tmp_path
        )
        assert plan.to_run == [("mix1", "fifo")]
        for key in first:
            assert _mix_fields(merged[key]) == _mix_fields(first[key])


def _submit_and_wait(client: ServiceClient, spec: SweepSpec) -> tuple[dict, list]:
    job = client.submit(spec.to_dict())
    responses = list(client.watch(job["job_id"]))
    events = [r["event"] for r in responses if "event" in r]
    return responses[-1]["done"], events


class TestServiceDaemon:
    """In-process daemon end-to-end: submit → watch → resume."""

    def _spec(self, **overrides) -> SweepSpec:
        base = dict(
            benchmark="429.mcf",
            length=2000,
            num_sets=16,
            ways=4,
            policies=["lru", "fifo"],
            namespace="t",
            window_size=500,
        )
        base.update(overrides)
        return SweepSpec(**base)

    def test_submit_watch_resume_cycle(self, tmp_path):
        async def scenario():
            service = SweepService(tmp_path, install_signal_handlers=False)
            await service.start()
            try:
                def client_side():
                    with ServiceClient(service_socket(tmp_path)) as client:
                        assert client.ping()["ok"]
                        done1, events1 = _submit_and_wait(client, self._spec())
                        done2, events2 = _submit_and_wait(client, self._spec())
                        jobs = client.jobs()
                        return done1, events1, done2, events2, jobs

                return await asyncio.to_thread(client_side)
            finally:
                await service.stop()

        done1, events1, done2, events2, jobs = asyncio.run(scenario())
        assert done1["state"] == "done"
        assert done1["ran_cells"] == 2 and done1["skipped_cells"] == 0
        # the resubmitted identical sweep is satisfied purely from manifests
        assert done2["state"] == "done"
        assert done2["ran_cells"] == 0 and done2["skipped_cells"] == 2
        assert [e["kind"] for e in events2 if e["kind"] == "skipped"] == [
            "skipped",
            "skipped",
        ]
        assert len(jobs) == 2 and all(j["state"] == "done" for j in jobs)

    def test_rejects_bad_specs_and_unknown_ops(self, tmp_path):
        async def scenario():
            service = SweepService(tmp_path, install_signal_handlers=False)
            await service.start()
            try:
                def client_side():
                    with ServiceClient(service_socket(tmp_path)) as client:
                        with pytest.raises(ProtocolError, match="unknown policy"):
                            client.submit(
                                {"benchmark": "429.mcf", "policies": ["nope"]}
                            )
                        with pytest.raises(ProtocolError, match="exactly one"):
                            client.submit({"policies": ["lru"]})
                        with pytest.raises(ProtocolError, match="unknown op"):
                            client.request({"op": "frobnicate"})
                        with pytest.raises(ProtocolError, match="unknown job"):
                            list(client.watch("no-such-job"))

                return await asyncio.to_thread(client_side)
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_corrupt_namespace_fails_job_without_force(self, tmp_path):
        async def scenario():
            service = SweepService(tmp_path, install_signal_handlers=False)
            await service.start()
            ns = service.store.namespace_dir("t")
            (ns / "corrupt.json").write_text("{not json")
            try:
                def client_side():
                    with ServiceClient(service_socket(tmp_path)) as client:
                        refused, _ = _submit_and_wait(client, self._spec())
                        forced, _ = _submit_and_wait(
                            client, self._spec(force=True)
                        )
                        return refused, forced

                return await asyncio.to_thread(client_side)
            finally:
                await service.stop()

        refused, forced = asyncio.run(scenario())
        assert refused["state"] == "failed"
        assert "corrupt" in refused["error"]
        assert forced["state"] == "done" and forced["ran_cells"] == 2

    def test_cell_failure_is_isolated_and_job_fails(self, tmp_path):
        async def scenario():
            service = SweepService(tmp_path, install_signal_handlers=False)
            await service.start()
            try:
                def client_side():
                    # an unknown kwarg blows up exactly one cell's
                    # factory inside the sweep; "lru" runs first and its
                    # manifest survives for the retry to skip
                    spec = self._spec(
                        policies=[
                            "lru",
                            {"key": "bad", "name": "fifo",
                             "kwargs": {"bogus": 1}},
                        ]
                    )
                    with ServiceClient(service_socket(tmp_path)) as client:
                        done, events = _submit_and_wait(client, spec)
                        fixed, _ = _submit_and_wait(
                            client,
                            self._spec(
                                policies=[
                                    "lru",
                                    {"key": "bad", "name": "fifo"},
                                ]
                            ),
                        )
                        return done, events, fixed

                return await asyncio.to_thread(client_side)
            finally:
                await service.stop()

        done, events, fixed = asyncio.run(scenario())
        assert done["state"] == "failed"
        assert done["error"]
        # the retry with the fixed spec skips lru's completed cell and
        # only re-runs the repaired one
        assert fixed["state"] == "done"
        assert fixed["skipped_cells"] == 1 and fixed["ran_cells"] == 1

    def test_stats_verb_reports_queue_jobs_and_latencies(self, tmp_path):
        from repro.obs.metrics import METRICS

        METRICS.reset()  # the registry is process-global; drop counts
        # accumulated by earlier in-process daemon tests

        async def scenario():
            service = SweepService(tmp_path, install_signal_handlers=False)
            await service.start()
            try:
                def client_side():
                    with ServiceClient(service_socket(tmp_path)) as client:
                        idle = client.stats()
                        _submit_and_wait(client, self._spec())
                        _submit_and_wait(client, self._spec())  # all-skip
                        busy = client.stats()
                        return idle, busy

                return await asyncio.to_thread(client_side)
            finally:
                await service.stop()

        idle, busy = asyncio.run(scenario())
        assert idle["ok"] and idle["queue_depth"] == 0
        assert idle["jobs_by_state"] == {}
        assert idle["running"] is None and idle["running_cell"] is None
        # after one real run + one fully resumed run
        assert busy["queue_depth"] == 0
        assert busy["jobs_by_state"] == {"done": 2}
        assert busy["running"] is None
        assert busy["skipped_cells_total"] == 2
        runtime = busy["percentiles"]["service.job_runtime_s"]
        assert runtime["count"] == 2
        assert runtime["p50"] is not None and runtime["p99"] is not None
        cell = busy["percentiles"]["grid.cell_runtime_s"]
        assert cell["count"] == 2  # two policies ran in the first job
        assert busy["metrics"]["counters"]["service.jobs_done"] == 2
        # the gauges reflect the state at scrape time
        assert busy["metrics"]["gauges"]["service.queue_depth"] == 0

    def test_jobs_listing_carries_queue_wait_and_runtime(self, tmp_path):
        async def scenario():
            service = SweepService(tmp_path, install_signal_handlers=False)
            await service.start()
            try:
                def client_side():
                    with ServiceClient(service_socket(tmp_path)) as client:
                        _submit_and_wait(client, self._spec())
                        return client.jobs()

                return await asyncio.to_thread(client_side)
            finally:
                await service.stop()

        jobs = asyncio.run(scenario())
        (job,) = jobs
        assert job["queue_wait_s"] is not None and job["queue_wait_s"] >= 0.0
        assert job["runtime_s"] is not None and job["runtime_s"] > 0.0


@pytest.mark.slow
class TestServiceProcess:
    """Black-box daemon lifecycle over a real subprocess: SIGTERM
    mid-sweep, restart, resume — the CI smoke scenario."""

    def _serve(self, root: Path) -> subprocess.Popen:
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", str(root)],
            env=env,
            stderr=subprocess.PIPE,
            cwd=REPO_ROOT,
        )
        deadline = time.monotonic() + 15
        sock = service_socket(root)
        while time.monotonic() < deadline and not sock.exists():
            time.sleep(0.1)
        assert sock.exists(), "daemon did not bind its socket"
        return proc

    def test_sigterm_restart_resume(self, tmp_path):
        spec = SweepSpec(
            benchmark="429.mcf",
            length=250_000,
            engine="reference",  # slow on purpose: survivable mid-kill
            policies=["lru", "fifo", "random", "srrip", "drrip", "pdp"],
            namespace="smoke",
        )
        proc = self._serve(tmp_path)
        try:
            with ServiceClient(service_socket(tmp_path)) as client:
                job = client.submit(spec.to_dict())
            # let some — but not all — cells complete, then kill
            ns = tmp_path / "namespaces" / "smoke"
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if len(list(ns.glob("*.json"))) >= 2:
                    break
                time.sleep(0.2)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
        record = json.loads(
            (tmp_path / "jobs" / f"{job['job_id']}.json").read_text()
        )
        partial_cells = len(
            [m for m in scan_manifests(ns).manifests if m.kind == "llc"]
        )
        if record["state"] == "done":
            pytest.skip("machine too fast: sweep finished before SIGTERM")
        assert record["state"] == "queued" and record["interrupted"]
        assert 0 < partial_cells < len(spec.policies)

        proc = self._serve(tmp_path)
        try:
            with ServiceClient(service_socket(tmp_path), timeout=300) as client:
                responses = list(client.watch(job["job_id"]))
            done = responses[-1]["done"]
            assert done["state"] == "done"
            assert done["skipped_cells"] == partial_cells
            assert done["skipped_cells"] + done["ran_cells"] == len(spec.policies)
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()


class TestPredictTier:
    """The analytical fast-forward tier: predict specs, resume-skip,
    and auto-submitted follow-up simulation jobs."""

    def _spec(self, **overrides) -> SweepSpec:
        base = dict(
            kind="predict",
            benchmark="403.gcc",
            length=4000,
            namespace="t",
            explore_sets=[16, 32, 64],
            explore_ways=[2, 4],
            pd_max=64,
            pd_step=8,
        )
        base.update(overrides)
        return SweepSpec(**base)

    def test_spec_validation(self):
        self._spec().validate()
        with pytest.raises(SpecError, match="exactly one"):
            self._spec(benchmark=None).validate()
        with pytest.raises(SpecError, match="no policies"):
            self._spec(policies=["lru"]).validate()
        with pytest.raises(SpecError, match="powers of two"):
            self._spec(explore_sets=[48]).validate()
        with pytest.raises(SpecError, match="positive ints"):
            self._spec(explore_ways=[0]).validate()
        with pytest.raises(SpecError, match="top_k"):
            self._spec(top_k=-1).validate()
        # round-trips through the wire format
        SweepSpec.from_dict(self._spec().to_dict()).validate()

    def test_execute_predict_with_resume_and_followups(self, tmp_path):
        from repro.service.scheduler import execute_spec

        events: list = []
        spec = self._spec(top_k=2)
        first = execute_spec(spec, tmp_path, on_event=events.append)
        assert first["kind"] == "predict"
        assert first["ran_cells"] == 1 and first["skipped_cells"] == 0
        assert first["frontier"] and len(first["followups"]) == 2
        manifests = scan_manifests(tmp_path).manifests
        assert [m.kind for m in manifests] == ["explore"]

        # identical spec resumes from the manifest (no second profiling)
        second = execute_spec(
            SweepSpec.from_dict(spec.to_dict()), tmp_path, on_event=events.append
        )
        assert second["ran_cells"] == 0 and second["skipped_cells"] == 1
        assert second["frontier"] == first["frontier"]
        assert [e.kind for e in events] == ["started", "finished", "skipped"]

        # a different design space is a different cell: it re-runs
        third = execute_spec(self._spec(pd_step=16), tmp_path)
        assert third["ran_cells"] == 1

        # follow-ups are valid single-cell matrix specs pinned to the
        # predict pass's exact trace (same fingerprint after num_sets
        # changes geometry)
        followup = SweepSpec.from_dict(first["followups"][0])
        followup.validate()
        assert followup.kind == "matrix"
        assert followup.trace_num_sets == spec.num_sets
        assert followup.policies[0]["name"] == "pdp"
        assert followup.policies[0]["kwargs"]["bypass"] is True

    def test_daemon_runs_predict_and_auto_submits_followups(self, tmp_path):
        async def scenario():
            service = SweepService(tmp_path, install_signal_handlers=False)
            await service.start()
            try:
                def client_side():
                    with ServiceClient(service_socket(tmp_path)) as client:
                        done, events = _submit_and_wait(
                            client, self._spec(top_k=1)
                        )
                        deadline = time.monotonic() + 60
                        while time.monotonic() < deadline:
                            jobs = client.jobs()
                            if len(jobs) == 2 and all(
                                j["state"] == "done" for j in jobs
                            ):
                                break
                            time.sleep(0.05)
                        return done, events, client.jobs()

                return await asyncio.to_thread(client_side)
            finally:
                await service.stop()

        done, events, jobs = asyncio.run(scenario())
        assert done["state"] == "done"
        followup_events = [e for e in events if e["kind"] == "followup"]
        assert len(followup_events) == 1
        assert len(jobs) == 2 and all(j["state"] == "done" for j in jobs)
        child = next(
            j for j in jobs if j["job_id"] == followup_events[0]["job_id"]
        )
        assert child["spec"]["kind"] == "matrix"
        manifests = scan_manifests(tmp_path / "namespaces" / "t").manifests
        kinds = sorted(m.kind for m in manifests)
        assert "explore" in kinds and "llc" in kinds
        explore_manifest = next(m for m in manifests if m.kind == "explore")
        llc = next(m for m in manifests if m.kind == "llc")
        # the join key of the prediction-error report holds end to end
        assert llc.trace_fingerprint == explore_manifest.trace_fingerprint
