"""Tests for repro.workloads.trace."""

import pytest

from repro.workloads.trace import (
    OP_DELETE,
    OP_GET,
    OP_SET,
    Trace,
    TraceBuilder,
    concat_traces,
)


def build_sample() -> Trace:
    builder = TraceBuilder("sample", num_keys=100, key_prefix=b"t:")
    builder.add(OP_GET, 1, 10)
    builder.add(OP_SET, 2, 20)
    builder.add(OP_GET, 1, 10)
    builder.add(OP_DELETE, 3, 0)
    builder.add(OP_GET, 2, 20)
    return builder.build()


class TestTraceBuilder:
    def test_length_tracks_adds(self):
        builder = TraceBuilder("b", num_keys=5)
        assert len(builder) == 0
        builder.add(OP_GET, 0, 1)
        assert len(builder) == 1

    def test_rejects_bad_op(self):
        builder = TraceBuilder("b", num_keys=5)
        with pytest.raises(ValueError):
            builder.add(9, 0, 1)

    def test_rejects_out_of_range_key(self):
        builder = TraceBuilder("b", num_keys=5)
        with pytest.raises(ValueError):
            builder.add(OP_GET, 5, 1)

    def test_rejects_negative_size(self):
        builder = TraceBuilder("b", num_keys=5)
        with pytest.raises(ValueError):
            builder.add(OP_GET, 0, -1)

    def test_rejects_zero_keys(self):
        with pytest.raises(ValueError):
            TraceBuilder("b", num_keys=0)


class TestTrace:
    def test_iteration_order(self):
        trace = build_sample()
        assert list(trace)[0] == (OP_GET, 1, 10)
        assert len(trace) == 5

    def test_indexing(self):
        assert build_sample()[1] == (OP_SET, 2, 20)

    def test_key_bytes_fixed_width(self):
        trace = build_sample()
        assert trace.key_bytes(1) == b"t:000000000001"
        assert len(trace.key_bytes(1)) == len(trace.key_bytes(99))

    def test_access_counts_exclude_deletes(self):
        counts = build_sample().access_counts()
        assert counts[1] == 2
        assert counts[2] == 2
        assert 3 not in counts

    def test_key_sizes_include_key_length(self):
        sizes = build_sample().key_sizes()
        key_len = len(b"t:") + 12
        assert sizes[1] == key_len + 10

    def test_mismatched_arrays_rejected(self):
        from array import array

        with pytest.raises(ValueError):
            Trace("x", 1, array("b", [0]), array("q", []), array("l", []))


class TestConcatTraces:
    def test_concatenates_in_order(self):
        a = build_sample()
        b = build_sample()
        joined = concat_traces("joined", [a, b])
        assert len(joined) == 10
        assert list(joined)[:5] == list(a)

    def test_mismatched_key_space_rejected(self):
        a = build_sample()
        other = TraceBuilder("o", num_keys=7, key_prefix=b"t:").build()
        with pytest.raises(ValueError):
            concat_traces("bad", [a, other])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            concat_traces("bad", [])
