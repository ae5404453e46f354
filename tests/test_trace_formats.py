"""Round-trip, property, and corruption tests for the trace formats.

Covers the three chunked on-disk formats (native ``.trz``, ChampSim-style
binary, CSV): save -> load -> save identity, empty traces, multi-thread
id preservation, chunk-boundary invariance, and loud failures on
truncated or corrupt files — never a silent partial read.
"""

from __future__ import annotations

import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.formats import (
    TraceFormatError,
    convert_trace,
    detect_format,
    format_names,
    open_trace,
    trace_info,
    write_stream,
)
from repro.traces.formats import champsim, csvfmt, native
from repro.traces.stream import DEFAULT_CHUNK_SIZE, TraceStream, as_stream
from repro.traces.trace import Trace


def _trace(n=100, seed=0, threads=2, name="t", ipa=2.5) -> Trace:
    rng = np.random.default_rng(seed)
    return Trace(
        rng.integers(-(1 << 40), 1 << 40, size=n),
        pcs=rng.integers(0, 1 << 30, size=n),
        thread_ids=rng.integers(0, threads, size=n),
        name=name,
        instructions_per_access=ipa,
    )


def _columns(trace: Trace):
    return (
        trace.addresses.tolist(),
        trace.pcs.tolist(),
        trace.thread_ids.tolist(),
    )


FORMAT_CASES = [
    ("native", "t.trz"),
    ("champsim", "t.champsim"),
    ("champsim", "t.champsim.gz"),
    ("csv", "t.csv"),
    ("csv", "t.csv.gz"),
]


@pytest.mark.parametrize("format_name,filename", FORMAT_CASES)
def test_round_trip_preserves_columns(tmp_path, format_name, filename):
    trace = _trace(threads=3)
    path = tmp_path / filename
    written = write_stream(as_stream(trace), path, format=format_name)
    assert written == len(trace)
    assert detect_format(path) == format_name
    loaded = open_trace(path).materialize()
    assert _columns(loaded) == _columns(trace)


@pytest.mark.parametrize("format_name,filename", FORMAT_CASES)
def test_save_load_save_is_byte_identical(tmp_path, format_name, filename):
    """Second save of a loaded trace reproduces the first file exactly."""
    trace = _trace()
    first = tmp_path / filename
    second = tmp_path / ("again-" + filename)
    write_stream(as_stream(trace), first, format=format_name)
    write_stream(open_trace(first), second, format=format_name)
    if filename.endswith(".gz") or format_name == "native":
        # gzip streams embed no timestamp here (mtime of a fresh write
        # differs); compare decompressed payloads instead.
        assert gzip.decompress(first.read_bytes()) == gzip.decompress(
            second.read_bytes()
        )
    else:
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("format_name,filename", FORMAT_CASES)
def test_read_is_chunk_size_invariant(tmp_path, format_name, filename):
    trace = _trace(n=257)
    path = tmp_path / filename
    write_stream(TraceStream.from_trace(trace, chunk_size=41), path,
                 format=format_name)
    for chunk_size in (1, 7, 100, 10_000):
        loaded = open_trace(path, chunk_size=chunk_size).materialize()
        assert _columns(loaded) == _columns(trace)


@pytest.mark.parametrize("format_name,filename", FORMAT_CASES)
def test_empty_trace_round_trips(tmp_path, format_name, filename):
    path = tmp_path / filename
    write_stream(as_stream(Trace([], name="empty")), path, format=format_name)
    loaded = open_trace(path, format=format_name).materialize()
    assert len(loaded) == 0


def test_native_preserves_metadata(tmp_path):
    trace = _trace(name="astar-lake", ipa=12.25)
    path = tmp_path / "t.trz"
    write_stream(as_stream(trace), path)
    stream = open_trace(path)
    assert stream.name == "astar-lake"
    assert stream.instructions_per_access == 12.25
    header = native.read_header(path)
    assert header["version"] == native.VERSION


def test_native_writes_gzip_level_1(tmp_path):
    """Every native writer uses the fastest gzip level (the header's XFL
    byte reads 4 for level 1, 2 for level 9)."""
    path = tmp_path / "t.trz"
    write_stream(as_stream(_trace()), path)
    assert path.read_bytes()[8] == 4
    _trace().save(tmp_path / "saved.trz")
    assert (tmp_path / "saved.trz").read_bytes()[8] == 4


def test_native_reads_level_9_files(tmp_path):
    """Files written at gzip level 9, as native writers did before they
    switched to level 1, still load through every reader."""
    trace = _trace(n=300, name="legacy", ipa=3.5)
    current = tmp_path / "current.trz"
    trace.save(current)
    legacy = tmp_path / "legacy.trz"
    legacy.write_bytes(
        gzip.compress(gzip.decompress(current.read_bytes()), compresslevel=9)
    )
    assert legacy.read_bytes()[8] == 2
    loaded = Trace.load(legacy)
    assert _columns(loaded) == _columns(trace)
    assert (loaded.name, loaded.instructions_per_access) == ("legacy", 3.5)
    stream = open_trace(legacy, chunk_size=64)
    assert _columns(stream.materialize()) == _columns(trace)
    assert native.scan_length(legacy) == len(trace)


def test_champsim_thread_ids_survive(tmp_path):
    trace = Trace([1, 2, 3, 4], thread_ids=[0, 3, 1, 2], name="mt")
    path = tmp_path / "t.champsim"
    champsim.write_chunks(path, [trace])
    loaded = open_trace(path).materialize()
    assert loaded.thread_ids.tolist() == [0, 3, 1, 2]


def test_csv_accepts_hex_comments_and_sparse_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "# a comment\n"
        "\n"
        "0x10\n"
        "17,0x20\n"
        "18,33,1\n"
    )
    loaded = open_trace(path).materialize()
    assert loaded.addresses.tolist() == [16, 17, 18]
    assert loaded.pcs.tolist() == [0, 32, 33]
    assert loaded.thread_ids.tolist() == [0, 0, 1]


def test_csv_malformed_line_names_the_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1\n2\nnot-a-number\n")
    with pytest.raises(TraceFormatError, match=r"t\.csv:3"):
        open_trace(path).materialize()


def test_csv_too_many_columns_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1,2,3,4\n")
    with pytest.raises(TraceFormatError, match="at most 3 columns"):
        open_trace(path).materialize()


def test_champsim_truncated_file_rejected(tmp_path):
    trace = _trace(n=10, threads=1)
    path = tmp_path / "t.champsim"
    champsim.write_chunks(path, [trace])
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 5])  # tear off part of a record
    with pytest.raises(TraceFormatError, match="truncated champsim"):
        open_trace(path).materialize()


def test_native_truncation_mid_block_rejected(tmp_path):
    path = tmp_path / "t.trz"
    write_stream(as_stream(_trace(n=50)), path)
    payload = gzip.decompress(path.read_bytes())
    path.write_bytes(gzip.compress(payload[: len(payload) - 30]))
    with pytest.raises(TraceFormatError, match="truncated native trace"):
        open_trace(path, format="native").materialize()


def test_native_truncation_at_block_boundary_rejected(tmp_path):
    """Cutting exactly before the terminator still fails (no silent
    partial read even when every block is intact)."""
    path = tmp_path / "t.trz"
    write_stream(as_stream(_trace(n=50)), path)
    payload = gzip.decompress(path.read_bytes())
    path.write_bytes(gzip.compress(payload[: len(payload) - 16]))
    with pytest.raises(TraceFormatError, match="truncated native trace"):
        open_trace(path, format="native").materialize()


def test_native_trailer_total_mismatch_rejected(tmp_path):
    path = tmp_path / "t.trz"
    write_stream(as_stream(_trace(n=50)), path)
    payload = bytearray(gzip.decompress(path.read_bytes()))
    payload[-8:] = (51).to_bytes(8, "little")  # lie about the total
    path.write_bytes(gzip.compress(bytes(payload)))
    with pytest.raises(TraceFormatError, match="trailer declares"):
        open_trace(path, format="native").materialize()


def test_native_bad_magic_rejected(tmp_path):
    path = tmp_path / "t.trz"
    path.write_bytes(gzip.compress(b"NOTATRACE" + b"\x00" * 32))
    with pytest.raises(TraceFormatError, match="bad magic"):
        open_trace(path, format="native").materialize()


def test_native_unsupported_version_rejected(tmp_path):
    path = tmp_path / "t.trz"
    write_stream(as_stream(_trace(n=3)), path)
    payload = bytearray(gzip.decompress(path.read_bytes()))
    payload[len(native.MAGIC)] = 99
    path.write_bytes(gzip.compress(bytes(payload)))
    with pytest.raises(TraceFormatError, match="version 99"):
        open_trace(path, format="native").materialize()


def test_detect_format_unknown_suffix_sniffs_content(tmp_path):
    path = tmp_path / "mystery.bin"
    write_stream(as_stream(_trace(n=5)), path, format="native")
    assert detect_format(path) == "native"


def test_detect_format_unidentifiable_raises(tmp_path):
    path = tmp_path / "mystery.bin"
    path.write_bytes(b"\x00" * 64)
    with pytest.raises(TraceFormatError, match="cannot infer trace format"):
        detect_format(path)


def test_open_trace_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        open_trace(tmp_path / "nope.trz")


def test_npz_write_rejected(tmp_path):
    with pytest.raises(TraceFormatError, match="read-only"):
        write_stream(as_stream(_trace(n=3)), tmp_path / "t.npz", format="npz")


def test_convert_between_all_writable_formats(tmp_path):
    trace = Trace([5, 6, 7], pcs=[1, 2, 3], thread_ids=[0, 1, 0], name="c")
    src = tmp_path / "src.csv"
    csvfmt.write_chunks(src, [trace])
    for filename in ("a.trz", "b.champsim", "c.csv.gz"):
        dst = tmp_path / filename
        copied = convert_trace(src, dst)
        assert copied == 3
        assert _columns(open_trace(dst).materialize()) == _columns(trace)


def test_trace_info_reports_the_stream(tmp_path):
    trace = Trace([10, -4, 99], thread_ids=[0, 2, 2], name="info")
    path = tmp_path / "t.trz"
    write_stream(as_stream(trace), path)
    info = trace_info(path)
    assert info["format"] == "native"
    assert info["accesses"] == 3
    assert info["threads"] == [0, 2]
    assert info["min_address"] == -4
    assert info["max_address"] == 99
    # The CLI fingerprint matches what a manifest records for this file.
    from repro.obs.manifest import trace_fingerprint

    assert info["fingerprint"] == trace_fingerprint(
        open_trace(path).materialize()
    )


def test_format_names_is_stable():
    assert format_names() == ["champsim", "csv", "native", "npz", "objectstore"]


def test_stream_is_reiterable(tmp_path):
    path = tmp_path / "t.trz"
    write_stream(TraceStream.from_trace(_trace(n=64), chunk_size=10), path)
    stream = open_trace(path)
    first = [len(c) for c in stream.chunks()]
    second = [len(c) for c in stream.chunks()]
    assert first == second and sum(first) == 64


# --- property tests (hypothesis) -------------------------------------------

_traces = st.builds(
    lambda addrs, pcs, tids, name, ipa: Trace(
        np.asarray(addrs, dtype=np.int64),
        pcs=np.asarray((pcs * len(addrs))[: len(addrs)] or [], dtype=np.int64),
        thread_ids=np.asarray(
            (tids * len(addrs))[: len(addrs)] or [], dtype=np.int64
        ),
        name=name,
        instructions_per_access=ipa,
    ),
    st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=60),
    st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=8),
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=4),
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        max_size=12,
    ),
    st.floats(min_value=0.25, max_value=64.0, allow_nan=False),
)


@settings(max_examples=40, deadline=None)
@given(trace=_traces, chunk_size=st.integers(min_value=1, max_value=70))
def test_native_round_trip_property(tmp_path_factory, trace, chunk_size):
    path = tmp_path_factory.mktemp("prop") / "t.trz"
    write_stream(TraceStream.from_trace(trace, chunk_size=chunk_size), path)
    stream = open_trace(path)
    loaded = stream.materialize()
    assert _columns(loaded) == _columns(trace)
    assert stream.name == trace.name
    assert stream.instructions_per_access == pytest.approx(
        trace.instructions_per_access
    )


@settings(max_examples=30, deadline=None)
@given(trace=_traces)
def test_csv_round_trip_property(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("prop") / "t.csv"
    csvfmt.write_chunks(path, [trace])
    loaded = open_trace(path).materialize()
    assert _columns(loaded) == _columns(trace)


@settings(max_examples=30, deadline=None)
@given(trace=_traces, cut=st.integers(min_value=1, max_value=24))
def test_native_never_reads_partial_property(tmp_path_factory, trace, cut):
    """Any truncation of the decompressed payload either errors or (never)
    yields a short trace — loud failure is the only acceptable outcome."""
    path = tmp_path_factory.mktemp("prop") / "t.trz"
    write_stream(as_stream(trace), path)
    payload = gzip.decompress(path.read_bytes())
    if cut >= len(payload):
        return
    path.write_bytes(gzip.compress(payload[: len(payload) - cut]))
    with pytest.raises(TraceFormatError):
        open_trace(path, format="native").materialize()


def test_default_chunk_size_is_sane():
    assert DEFAULT_CHUNK_SIZE >= 1_000
