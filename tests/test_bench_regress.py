"""Benchmark schema, migration tool, trajectory, and the perf gate.

Covers :mod:`repro.obs.bench` and ``tools/bench_regress.py``: legacy
``BENCH_*.json`` migration (and its idempotence), the canonical record
shape, trajectory append/read, sparkline rendering, the regression
comparison — including the required negative test where an injected 2x
slowdown makes the ``check`` gate exit non-zero — and the zero-resim
report renderer.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.memory.cache import CacheGeometry
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    append_trajectory,
    canonical_record,
    compare_records,
    is_canonical,
    load_record,
    machine_fingerprint,
    migrate_record,
    peak_rss_bytes,
    read_trajectory,
    render_report,
    sparkline,
    throughput_map,
)
from repro.policies.lru import LRUPolicy
from repro.sim.single_core import run_llc
from repro.traces.trace import Trace

REPO_ROOT = Path(__file__).parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_regress", REPO_ROOT / "tools" / "bench_regress.py"
)
bench_regress = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_regress)


def _legacy_engine_report(scale: float = 1.0) -> dict:
    """A minimal pre-schema BENCH_engine.json payload."""
    return {
        "benchmark": "403.gcc",
        "trace_length": 200_000,
        "kernels": {
            "lru": {
                "fast_accesses_per_sec": 1_600_000 * scale,
                "reference_accesses_per_sec": 370_000 * scale,
                "speedup": 4.3,
            },
            "pdp": {
                "fast_accesses_per_sec": 1_100_000 * scale,
                "reference_accesses_per_sec": 260_000 * scale,
                "speedup": 4.2,
            },
        },
    }


def _legacy_multicore_report() -> dict:
    return {
        "cores": 4,
        "kernels": {
            "lru": {"fast_accesses_per_sec": 900_000.0}
        },
    }


class TestSchema:
    def test_canonical_record_shape(self):
        record = canonical_record("engine", _legacy_engine_report())
        assert record["bench_schema_version"] == BENCH_SCHEMA_VERSION
        assert record["kind"] == "engine"
        assert set(record["machine"]) == {
            "platform", "machine", "python", "cpu_count"
        }
        assert record["throughput"]["fast/lru"] == 1_600_000
        assert record["raw"]["benchmark"] == "403.gcc"
        assert is_canonical(record)

    def test_throughput_map_flattens_both_engines(self):
        throughput = throughput_map(_legacy_engine_report())
        assert set(throughput) == {
            "fast/lru", "reference/lru", "fast/pdp", "reference/pdp"
        }

    def test_migrate_legacy_engine_and_multicore(self):
        engine = migrate_record(_legacy_engine_report())
        multicore = migrate_record(_legacy_multicore_report())
        assert engine["kind"] == "engine"
        assert multicore["kind"] == "multicore"

    def test_migrate_is_idempotent(self):
        once = migrate_record(_legacy_engine_report())
        assert migrate_record(once) is once

    def test_migrate_rejects_foreign_payloads(self):
        with pytest.raises(ValueError, match="not a benchmark record"):
            migrate_record({"hello": "world"})

    def test_peak_rss_positive_and_fingerprint_json(self):
        rss = peak_rss_bytes()
        assert rss is None or rss > 1024 * 1024  # at least a megabyte
        json.dumps(machine_fingerprint())  # JSON-native by contract

    def test_peak_rss_counts_waited_children(self):
        """A pooled bench's workers count: a child that touched 96 MB
        raises the reading of a parent that stayed small."""
        child = "b = b'x' * (96 << 20)"
        parent = (
            "import subprocess, sys\n"
            "from repro.obs.bench import peak_rss_bytes\n"
            f"subprocess.run([sys.executable, '-c', {child!r}], check=True)\n"
            "print(peak_rss_bytes())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", parent],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            check=True,
        )
        reading = out.stdout.strip()
        if reading == "None":
            pytest.skip("resource module unavailable")
        assert int(reading) >= 96 << 20

    def test_committed_bench_files_are_canonical(self):
        for name in ("BENCH_engine.json", "BENCH_multicore.json"):
            data = json.loads((REPO_ROOT / name).read_text())
            assert is_canonical(data), f"{name} must carry the schema"
            assert data["throughput"], f"{name} must expose throughput keys"


class TestTrajectory:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / "BENCH_trajectory.jsonl"
        first = canonical_record("engine", _legacy_engine_report())
        second = canonical_record("engine", _legacy_engine_report(scale=1.1))
        append_trajectory(first, path)
        append_trajectory(second, path)
        records = read_trajectory(path)
        assert len(records) == 2
        assert records[0]["throughput"] == first["throughput"]
        assert records[1]["throughput"]["fast/lru"] > first["throughput"]["fast/lru"]

    def test_append_rejects_legacy_records(self, tmp_path):
        with pytest.raises(ValueError, match="canonical"):
            append_trajectory(_legacy_engine_report(), tmp_path / "t.jsonl")

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_trajectory(tmp_path / "nope.jsonl") == []


class TestCompare:
    def test_no_regression_within_tolerance(self):
        base = canonical_record("engine", _legacy_engine_report())
        curr = canonical_record("engine", _legacy_engine_report(scale=0.8))
        assert compare_records(base, curr, tolerance=0.25) == []

    def test_injected_2x_slowdown_detected(self):
        base = canonical_record("engine", _legacy_engine_report())
        slow = canonical_record("engine", _legacy_engine_report(scale=0.5))
        regressions = compare_records(base, slow, tolerance=0.25)
        assert len(regressions) == 4  # every shared key halved
        assert all(abs(row["ratio"] - 0.5) < 1e-9 for row in regressions)
        assert regressions == sorted(regressions, key=lambda r: r["ratio"])

    def test_only_shared_keys_compared(self):
        base = canonical_record("engine", _legacy_engine_report())
        curr = canonical_record(
            "engine", {"benchmark": "x", "kernels": {}},
            throughput={"fast/new-policy": 1.0},
        )
        assert compare_records(base, curr) == []

    def test_invalid_tolerance_rejected(self):
        base = canonical_record("engine", _legacy_engine_report())
        with pytest.raises(ValueError, match="tolerance"):
            compare_records(base, base, tolerance=1.5)


class TestSparkline:
    def test_empty_and_flat(self):
        assert sparkline([]) == ""
        assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"

    def test_monotone_ramp_ends_at_extremes(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█"

    def test_downsampling_to_width(self):
        assert len(sparkline([float(i) for i in range(1000)], width=20)) == 20


class TestTool:
    """The ``tools/bench_regress.py`` command-line face."""

    def test_migrate_legacy_file_in_place_then_idempotent(self, tmp_path, capsys):
        target = tmp_path / "BENCH_engine.json"
        target.write_text(json.dumps(_legacy_engine_report()))
        assert bench_regress.main(["migrate", str(target)]) == 0
        migrated = json.loads(target.read_text())
        assert is_canonical(migrated)
        assert bench_regress.main(["migrate", str(target)]) == 0
        assert "already canonical" in capsys.readouterr().out
        assert json.loads(target.read_text()) == migrated

    def test_migrate_alias_flag(self, tmp_path):
        target = tmp_path / "BENCH_multicore.json"
        target.write_text(json.dumps(_legacy_multicore_report()))
        assert bench_regress.main(["--migrate", str(target)]) == 0
        assert is_canonical(json.loads(target.read_text()))

    def test_migrate_unparseable_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "garbage.json"
        bad.write_text(json.dumps({"not": "a benchmark"}))
        assert bench_regress.main(["migrate", str(bad)]) == 1
        assert "cannot migrate" in capsys.readouterr().err

    def test_check_gate_passes_then_fails_on_2x_slowdown(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        current = tmp_path / "curr.json"
        slowed = tmp_path / "slow.json"
        baseline.write_text(
            json.dumps(canonical_record("engine", _legacy_engine_report()))
        )
        current.write_text(
            json.dumps(canonical_record("engine", _legacy_engine_report(0.9)))
        )
        slowed.write_text(
            json.dumps(canonical_record("engine", _legacy_engine_report(0.5)))
        )
        assert bench_regress.main(
            ["check", "--baseline", str(baseline), "--current", str(current)]
        ) == 0
        assert "CHECK OK" in capsys.readouterr().out
        # the negative test: an injected 2x slowdown must fail the gate
        assert bench_regress.main(
            ["check", "--baseline", str(baseline), "--current", str(slowed)]
        ) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_append_subcommand(self, tmp_path):
        record_path = tmp_path / "bench.json"
        trajectory = tmp_path / "traj.jsonl"
        record_path.write_text(json.dumps(_legacy_engine_report()))
        assert bench_regress.main(
            ["append", "--record", str(record_path),
             "--trajectory", str(trajectory)]
        ) == 0
        assert len(read_trajectory(trajectory)) == 1

    def test_load_record_migrates_on_the_fly(self, tmp_path):
        target = tmp_path / "legacy.json"
        target.write_text(json.dumps(_legacy_engine_report()))
        assert is_canonical(load_record(target))


class TestReport:
    def _manifest_dir(self, tmp_path) -> Path:
        rng = np.random.default_rng(5)
        trace = Trace(rng.integers(0, 400, size=2000), name="report-trace")
        run_llc(
            trace, LRUPolicy(), CacheGeometry(num_sets=16, ways=4),
            window_size=250, manifest_dir=tmp_path,
        )
        return tmp_path

    def test_report_renders_from_manifests_alone(self, tmp_path):
        directory = self._manifest_dir(tmp_path)
        text = render_report(directory)
        assert "Simulation report" in text
        assert "Window plots (1 recorded runs)" in text
        assert "hit rate" in text
        assert "report-trace" in text

    def test_report_includes_trajectory_when_present(self, tmp_path):
        directory = self._manifest_dir(tmp_path)
        append_trajectory(
            canonical_record("engine", _legacy_engine_report()),
            directory / "BENCH_trajectory.jsonl",
        )
        text = render_report(directory)
        assert "Benchmark trajectory (1 records)" in text
        assert "fast/lru" in text

    def test_html_report_is_self_contained(self, tmp_path):
        directory = self._manifest_dir(tmp_path)
        text = render_report(directory, html=True)
        assert text.startswith("<!DOCTYPE html>")
        assert "</html>" in text

    def test_report_tool_writes_out_file(self, tmp_path, capsys):
        directory = self._manifest_dir(tmp_path)
        out = tmp_path / "report.md"
        assert bench_regress.main(
            ["report", str(directory), "--out", str(out)]
        ) == 0
        assert "Simulation report" in out.read_text()
