"""Grid cells: content-addressed identity, loud unidentifiable cells and
id-less manifests, and the executor (resume identity itself is pinned
by ``tests/test_resume_identity.py``)."""

from __future__ import annotations

import json
from functools import partial

import numpy as np
import pytest

from repro.memory.cache import CacheGeometry
from repro.memory.timing import TimingModel
from repro.obs.manifest import scan_manifests
from repro.policies.base import make_policy
from repro.policies.lru import LRUPolicy
from repro.service.scheduler import run_resumable_matrix
from repro.sim.cells import Cell, describe_factory, identify, run_cells
from repro.traces.trace import Trace

GEOMETRY = CacheGeometry(num_sets=16, ways=4)


def _trace(seed: int = 11, n: int = 3000, name: str | None = None) -> Trace:
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 300, size=n)
    cold = rng.integers(300, 12_000, size=n)
    addresses = np.where(rng.random(n) < 0.6, hot, cold)
    return Trace(addresses, name=name or f"cells-test-{seed}")


class TestCellId:
    def test_id_ignores_engine_key_and_window(self):
        trace = _trace()
        base = Cell("a", LRUPolicy, (trace,), GEOMETRY)
        other = Cell("b", LRUPolicy, (trace,), GEOMETRY, engine="reference", window_size=64)
        assert base.id is not None and len(base.id) == 64
        assert base.id == other.id

    def test_id_covers_factory_geometry_trace_and_timing(self):
        trace = _trace()
        base = Cell("a", LRUPolicy, (trace,), GEOMETRY)
        variants = [
            Cell("a", partial(make_policy, "lru"), (trace,), GEOMETRY),
            Cell("a", LRUPolicy, (trace,), CacheGeometry(num_sets=32, ways=4)),
            Cell("a", LRUPolicy, (_trace(seed=12),), GEOMETRY),
            Cell("a", LRUPolicy, (trace,), GEOMETRY, timing=TimingModel(mlp=1.0)),
        ]
        ids = {base.id, *(cell.id for cell in variants)}
        assert len(ids) == 1 + len(variants)

    def test_nested_partials_flatten(self):
        inner = partial(make_policy, "pdp", static_pd=16, bypass=True)
        outer = partial(inner, static_pd=32)
        assert describe_factory(outer) == describe_factory(
            partial(make_policy, "pdp", static_pd=32, bypass=True)
        )
        assert describe_factory(outer) == {
            "callable": "repro.policies.base.make_policy",
            "args": ["pdp"],
            "kwargs": {"bypass": True, "static_pd": 32},
        }

    def test_undescribable_factories_have_no_id(self):
        def closure():
            return LRUPolicy()

        trace = _trace()
        for factory in (
            lambda: LRUPolicy(),
            closure,
            partial(make_policy, "pdp", static_pd=np.int64(16)),
            partial(make_policy, "pdp", static_pd=float("nan")),
            LRUPolicy().on_fill,
        ):
            assert describe_factory(factory) is None
            assert Cell("x", factory, (trace,), GEOMETRY).id is None

    def test_identify_fingerprints_each_trace_once(self, monkeypatch):
        import repro.sim.cells as cells_module

        calls = []
        real = cells_module.fingerprint_source

        def counting(trace):
            calls.append(trace.name)
            return real(trace)

        monkeypatch.setattr(cells_module, "fingerprint_source", counting)
        a, b = _trace(1), _trace(2)
        cells = [Cell(k, LRUPolicy, (t,), GEOMETRY) for k, t in enumerate([a, a, b, a])]
        ids = identify(cells)
        assert sorted(calls) == sorted([a.name, b.name])
        assert ids[0] == ids[1] == ids[3] != ids[2]


class TestLoudResume:
    def test_unidentifiable_cell_always_runs_loudly(self, tmp_path):
        trace = _trace()
        factories = {"anon": lambda: LRUPolicy(), "lru": LRUPolicy}
        for _ in range(2):
            events = []
            with pytest.warns(RuntimeWarning, match="have no id") as caught:
                run_resumable_matrix(
                    trace, factories, GEOMETRY, tmp_path, max_workers=1,
                    on_event=events.append,
                )
            assert sum("have no id" in str(w.message) for w in caught) == 1
            warned = [e for e in events if e.kind == "warning"]
            assert [e.key for e in warned] == ["unidentified-cells"]
            assert "anon" in warned[0].error
        _, plan = run_resumable_matrix(
            trace, {"lru": LRUPolicy}, GEOMETRY, tmp_path, max_workers=1
        )
        assert plan.skipped and plan.ids["lru"] is not None

    def test_manifests_without_ids_rerun_once_with_one_warning(self, tmp_path):
        trace = _trace()
        factories = {"lru": LRUPolicy, "fifo": partial(make_policy, "fifo")}
        run_resumable_matrix(trace, factories, GEOMETRY, tmp_path)
        for path in tmp_path.glob("*.json"):
            data = json.loads(path.read_text())
            if data.get("kind") == "llc":
                data["extra"].pop("cell_id")
                path.write_text(json.dumps(data))
        events = []
        with pytest.warns(RuntimeWarning, match="record no cell id") as caught:
            _, rerun = run_resumable_matrix(
                trace, factories, GEOMETRY, tmp_path, on_event=events.append
            )
        assert sum("record no cell id" in str(w.message) for w in caught) == 1
        assert "2 cell manifest(s)" in str(caught[0].message)
        assert [e.key for e in events if e.kind == "warning"] == ["legacy-manifests"]
        assert sorted(rerun.to_run) == ["fifo", "lru"]
        # the old files stay and keep being counted, but no longer cost a run
        with pytest.warns(RuntimeWarning, match="2 cell manifest"):
            _, resumed = run_resumable_matrix(trace, factories, GEOMETRY, tmp_path)
        assert not resumed.to_run


class TestRunCells:
    def test_manifests_record_cell_ids(self, tmp_path):
        trace = _trace()
        cells = [Cell(key, LRUPolicy, (trace,), GEOMETRY) for key in ("a", "b")]
        run_cells(cells, max_workers=2, manifest_dir=tmp_path)
        recorded = {
            m.label: m.extra["cell_id"]
            for m in scan_manifests(tmp_path).manifests
            if m.kind == "llc"
        }
        assert recorded == {"a": cells[0].id, "b": cells[1].id}

    def test_mixed_llc_and_shared_cells_in_one_list(self):
        trace = _trace()
        threads = (_trace(1, 500, "t1"), _trace(2, 500, "t2"))
        cells = [
            Cell("single", LRUPolicy, (trace,), GEOMETRY),
            Cell(("mix", "lru"), LRUPolicy, threads, GEOMETRY, kind="shared_llc",
                 engine="fast", name="mix"),
        ]
        results = run_cells(cells, max_workers=1)
        assert list(results) == ["single", ("mix", "lru")]
        assert results["single"].accesses == len(trace)
        assert len(results[("mix", "lru")].threads) == 2
