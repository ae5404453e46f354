"""Live metrics registry and span tracer: the PR's observability core.

Pins the two load-bearing registry properties — the zero-cost disabled
path and lossless sharded merging (the hypothesis property test drives
random operation streams through sharded and unsharded registries and
requires identical state) — plus the Prometheus renderer, quantile
estimation, span-tree round-trip with critical-path marking, and the
torn-final-line tolerance of every JSONL log reader.
"""

from __future__ import annotations

import json
import math
from functools import partial
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.memory.fastpath import run_trace
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    METRICS,
    NUM_BUCKETS,
    MetricsRegistry,
    bucket_index,
    histogram_percentiles,
    histogram_quantile,
    render_prometheus,
)
from repro.obs.spans import (
    NULL_ACTIVE_SPAN,
    SPANS_FILENAME,
    SpanTracer,
    current_span_ids,
    read_spans,
    render_span_tree,
)
from repro.obs.telemetry import TELEMETRY
from repro.obs.trace_log import read_events, read_jsonl
from repro.policies.base import make_policy
from repro.traces.trace import Trace


class TestBuckets:
    def test_edges_land_in_expected_buckets(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(-1.0) == 0  # clock warts clamp low
        assert bucket_index(BUCKET_BOUNDS[0]) == 0
        # an exact power of two sits at the top of its own bucket
        assert bucket_index(1.0) == BUCKET_BOUNDS.index(1.0)
        assert bucket_index(1.0000001) == BUCKET_BOUNDS.index(1.0) + 1
        assert bucket_index(float(BUCKET_BOUNDS[-1])) == NUM_BUCKETS - 2
        assert bucket_index(1e9) == NUM_BUCKETS - 1  # +Inf overflow

    def test_every_bound_is_its_buckets_top(self):
        for i, bound in enumerate(BUCKET_BOUNDS):
            assert bucket_index(bound) == i
            assert bucket_index(bound * 1.01) == min(i + 1, NUM_BUCKETS - 1)


class TestRegistryBasics:
    def test_disabled_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("c")
        reg.gauge("g", 1.0)
        reg.observe("h", 0.5)
        assert reg.counters == {} and reg.gauges == {} and reg.histograms == {}
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_enabled_accumulates_and_snapshots(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("cells", 3)
        reg.inc("cells")
        reg.gauge("depth", 2.0)
        reg.gauge("depth", 5.0)
        reg.observe("lat", 0.25)
        reg.observe("lat", 0.75)
        snap = reg.snapshot()
        assert snap["counters"] == {"cells": 4}
        assert snap["gauges"] == {"depth": 5.0}
        hist = snap["histograms"]["lat"]
        assert hist["count"] == 2
        assert hist["total"] == pytest.approx(1.0)
        assert hist["min"] == 0.25 and hist["max"] == 0.75
        assert sum(hist["buckets"].values()) == 2

    def test_reset_drops_state_but_keeps_enabled(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("c")
        reg.observe("h", 0.1)
        reg.reset()
        assert reg.enabled
        assert reg.counters == {} and reg.histograms == {}

    def test_merge_into_disabled_registry_still_works(self):
        # merging is aggregation, not recording: the parent may have its
        # registry disabled while pool workers had theirs enabled
        source = MetricsRegistry(enabled=True)
        source.inc("c", 2)
        source.observe("h", 0.5)
        parent = MetricsRegistry(enabled=False)
        parent.merge_snapshot(source.snapshot())
        assert parent.counters == {"c": 2}
        assert parent.histograms["h"][0] == 1


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["inc", "gauge", "observe"]),
        st.sampled_from(["a", "b", "c"]),
        st.floats(
            min_value=1e-7, max_value=500.0,
            allow_nan=False, allow_infinity=False,
        ),
    ),
    min_size=0,
    max_size=60,
)


def _apply(registry: MetricsRegistry, ops) -> None:
    for kind, name, value in ops:
        if kind == "inc":
            registry.inc(name, int(value) + 1)
        elif kind == "gauge":
            registry.gauge(name, value)
        else:
            registry.observe(name, value)


class TestShardedMergeProperty:
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS, num_shards=st.integers(min_value=1, max_value=5))
    def test_sharded_merge_equals_unsharded(self, ops, num_shards):
        """Splitting an op stream into contiguous shards and merging the
        shard snapshots in order must reproduce the unsharded registry:
        counters and histogram buckets sum exactly, gauges keep the
        globally-last write, min/max survive the merge."""
        whole = MetricsRegistry(enabled=True)
        _apply(whole, ops)

        merged = MetricsRegistry(enabled=True)
        per_shard = max(1, math.ceil(len(ops) / num_shards)) if ops else 1
        for start in range(0, len(ops), per_shard):
            shard = MetricsRegistry(enabled=True)
            _apply(shard, ops[start:start + per_shard])
            merged.merge_snapshot(shard.snapshot())

        want, got = whole.snapshot(), merged.snapshot()
        assert got["counters"] == want["counters"]
        assert got["gauges"] == want["gauges"]
        assert got["histograms"].keys() == want["histograms"].keys()
        for name, hist in want["histograms"].items():
            other = got["histograms"][name]
            assert other["count"] == hist["count"]
            assert other["buckets"] == hist["buckets"]
            assert other["min"] == hist["min"]
            assert other["max"] == hist["max"]
            # totals are float sums: association differs across shards
            assert other["total"] == pytest.approx(hist["total"])


class TestQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        empty = {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                 "buckets": {}}
        assert histogram_quantile(empty, 0.5) is None
        summary = histogram_percentiles(empty)
        assert summary == {"count": 0, "mean": None, "p50": None,
                           "p90": None, "p99": None}

    def test_single_observation_reports_itself(self):
        reg = MetricsRegistry(enabled=True)
        reg.observe("h", 0.125)
        hist = reg.snapshot()["histograms"]["h"]
        for q in (0.01, 0.5, 0.99):
            assert histogram_quantile(hist, q) == pytest.approx(0.125)

    def test_quantiles_are_ordered_and_clamped(self):
        reg = MetricsRegistry(enabled=True)
        rng = np.random.default_rng(7)
        values = rng.uniform(0.001, 0.2, size=500)
        for value in values.tolist():
            reg.observe("h", value)
        hist = reg.snapshot()["histograms"]["h"]
        summary = histogram_percentiles(hist)
        assert summary["count"] == 500
        assert summary["p50"] <= summary["p90"] <= summary["p99"]
        assert hist["min"] <= summary["p50"] <= hist["max"]
        assert summary["p99"] <= hist["max"]
        # the log2-bucket estimate of the median lands within the
        # containing bucket of the true median (factor-of-two bound)
        true_median = float(np.median(values))
        assert summary["p50"] <= true_median * 2.0
        assert summary["p50"] >= true_median / 2.0


class TestPrometheusRender:
    def test_renders_valid_text_exposition(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("grid.cells_done", 5)
        reg.gauge("service.queue_depth", 2.0)
        reg.observe("grid.cell_runtime_s", 0.03)
        reg.observe("grid.cell_runtime_s", 0.07)
        text = render_prometheus(reg.snapshot())
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "# TYPE repro_grid_cells_done counter" in lines
        assert "repro_grid_cells_done 5" in lines
        assert "# TYPE repro_service_queue_depth gauge" in lines
        assert "# TYPE repro_grid_cell_runtime_s histogram" in lines
        assert 'repro_grid_cell_runtime_s_bucket{le="+Inf"} 2' in lines
        assert "repro_grid_cell_runtime_s_count 2" in lines
        # cumulative bucket counts are monotonically non-decreasing
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("repro_grid_cell_runtime_s_bucket")
        ]
        assert counts == sorted(counts) and counts[-1] == 2

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(
            {"counters": {}, "gauges": {}, "histograms": {}}
        ) == ""


class TestDisabledOverhead:
    def test_disabled_calls_touch_no_state_and_stay_cheap(self):
        reg = MetricsRegistry(enabled=False)
        start = perf_counter()
        for _ in range(10_000):
            reg.observe("h", 0.001)
            reg.inc("c")
        elapsed = perf_counter() - start
        assert reg.histograms == {} and reg.counters == {}
        # one attribute test + return; 5 us/call is an absurdly generous
        # ceiling that still catches an accidentally-enabled hot path
        assert elapsed < 0.1

    def test_engine_ab_disabled_not_slower_than_enabled(self):
        """Back-to-back A/B on the fastpath engine: with both observability
        sinks disabled the run must not be materially slower than with
        them enabled (the gating check is the only extra work)."""
        rng = np.random.default_rng(3)
        trace = Trace(rng.integers(0, 4096, size=20_000), name="ab")
        geometry = CacheGeometry(num_sets=32, ways=4)

        def once() -> float:
            cache = SetAssociativeCache(geometry, make_policy("lru"))
            start = perf_counter()
            run_trace(cache, trace)
            return perf_counter() - start

        was_tel, was_met = TELEMETRY.enabled, METRICS.enabled
        try:
            TELEMETRY.disable(), METRICS.disable()
            once()  # warm caches
            disabled = min(once() for _ in range(3))
            TELEMETRY.enable(), METRICS.enable()
            enabled = min(once() for _ in range(3))
        finally:
            TELEMETRY.enabled, METRICS.enabled = was_tel, was_met
        # loose 25% margin: the point is catching gross gating mistakes,
        # not micro-benchmarking in a shared CI runner
        assert disabled <= enabled * 1.25


class TestSpans:
    def test_disabled_tracer_is_inert_singleton(self, tmp_path):
        tracer = SpanTracer.for_dir(None)
        assert not tracer.enabled
        span = tracer.span("nothing", key="value")
        assert span is NULL_ACTIVE_SPAN
        with span as active:
            active.set("still", "no-op")
            assert current_span_ids() is None
        tracer.close()

    def test_round_trip_emit_parse_render(self, tmp_path):
        with SpanTracer.for_dir(tmp_path) as tracer:
            with tracer.span("job", kind="matrix") as job:
                assert current_span_ids() is not None
                with tracer.span("resume-scan") as scan:
                    scan.set("skipped", 3)
                with tracer.span("run-grid"):
                    tracer.emit("cell:lru", 0.0, 0.5,
                                {"status": "ok", "runtime_s": 0.5})
                    tracer.emit("cell:pdp", 0.0, 0.1,
                                {"status": "ok", "runtime_s": 0.1})
                job.set("state", "done")
            assert current_span_ids() is None

        spans = read_spans(tmp_path / SPANS_FILENAME)
        assert [s["name"] for s in spans] == [
            "resume-scan", "cell:lru", "cell:pdp", "run-grid", "job",
        ]
        by_name = {s["name"]: s for s in spans}
        assert len({s["trace_id"] for s in spans}) == 1
        assert by_name["job"]["parent_id"] is None
        assert by_name["resume-scan"]["parent_id"] == by_name["job"]["span_id"]
        assert by_name["cell:lru"]["parent_id"] == by_name["run-grid"]["span_id"]
        assert by_name["job"]["attributes"]["state"] == "done"
        assert by_name["resume-scan"]["attributes"]["skipped"] == 3

        text = render_span_tree(spans)
        lines = text.splitlines()
        assert lines[0].startswith("job")
        # the critical path runs job -> run-grid -> cell:lru (the
        # longest-duration child at each level)
        assert any("job" in ln and ln.endswith("*") for ln in lines)
        assert any("run-grid" in ln and ln.endswith("*") for ln in lines)
        assert any("cell:lru" in ln and ln.endswith("*") for ln in lines)
        assert not any("cell:pdp" in ln and ln.endswith("*") for ln in lines)
        assert any("[ok]" in ln for ln in lines)
        assert "5 spans, 1 root(s); * = critical path" in text

    def test_pooled_grid_pack_span_round_trip(self, tmp_path):
        """A pooled grid writes its payloads under a ``pack`` span —
        child of the grid root, apart from the cell spans — packing the
        one shared trace once and recording the bytes written."""
        from repro.sim.parallel import run_matrix

        trace = Trace(np.arange(2000) % 300, name="pack-span")
        factories = {
            "lru": partial(make_policy, "lru"),
            "fifo": partial(make_policy, "fifo"),
        }
        run_matrix(
            trace, factories, CacheGeometry(num_sets=16, ways=4),
            max_workers=2, manifest_dir=tmp_path,
        )
        spans = read_spans(tmp_path / SPANS_FILENAME)
        by_name = {s["name"]: s for s in spans}
        pack = by_name["pack"]
        assert pack["parent_id"] == by_name["matrix"]["span_id"]
        assert pack["attributes"]["files"] == 1
        assert pack["attributes"]["bytes"] > 0
        cells = [s for s in spans if s["name"].startswith("cell:")]
        assert len(cells) == 2
        assert all(s["parent_id"] == by_name["matrix"]["span_id"] for s in cells)
        assert "pack" in render_span_tree(spans)

    def test_exception_in_span_records_error_attribute(self, tmp_path):
        tracer = SpanTracer.for_dir(tmp_path)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        tracer.close()
        (span,) = read_spans(tmp_path / SPANS_FILENAME)
        assert span["attributes"]["error"] == "ValueError"

    def test_render_empty(self):
        assert render_span_tree([]) == "(no spans recorded)\n"


class TestTornLineTolerance:
    def _lines(self, n: int) -> list[str]:
        return [json.dumps({"kind": "finished", "key": f"k{i}"})
                for i in range(n)]

    def test_torn_final_line_warns_and_skips(self, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_text("\n".join(self._lines(2)) + '\n{"kind": "fini')
        with pytest.warns(RuntimeWarning, match="torn final line"):
            events = read_events(log)
        assert [e["key"] for e in events] == ["k0", "k1"]

    def test_mid_file_corruption_still_raises(self, tmp_path):
        log = tmp_path / "events.jsonl"
        lines = self._lines(2)
        log.write_text(lines[0] + "\n{broken\n" + lines[1] + "\n")
        with pytest.raises(json.JSONDecodeError):
            read_events(log)

    def test_clean_file_reads_without_warning(self, tmp_path):
        import warnings

        log = tmp_path / "spans.jsonl"
        log.write_text("\n".join(self._lines(3)) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(read_jsonl(log, what="span log")) == 3
