"""Tests for CDF, base-cache sizing, and table rendering."""

import pytest

from repro.analysis import access_cdf, base_cache_size, coverage_point, format_table
from repro.workloads import calibration
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, TraceBuilder


def skewed_trace():
    builder = TraceBuilder("t", num_keys=10)
    for _ in range(80):
        builder.add(OP_GET, 0, 100)  # one very hot key
    for key in range(1, 10):
        builder.add(OP_GET, key, 100)
    return builder.build()


class TestAccessCdf:
    def test_curve_monotone(self):
        curve = access_cdf(skewed_trace(), points=20)
        xs = [x for x, _y in curve]
        ys = [y for _x, y in curve]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert curve[-1][1] == pytest.approx(1.0)

    def test_empty_trace(self):
        empty = TraceBuilder("e", num_keys=1).build()
        assert access_cdf(empty) == [(0.0, 0.0), (1.0, 1.0)]


class TestCoveragePoint:
    def test_hot_key_dominates(self):
        # One key carries 80/89 of accesses: 10 % of items covers 80 %.
        assert coverage_point(skewed_trace()) == pytest.approx(0.1)

    def test_uniform_needs_most_items(self):
        builder = TraceBuilder("u", num_keys=10)
        for key in range(10):
            builder.add(OP_GET, key, 100)
        assert coverage_point(builder.build()) == pytest.approx(0.8)


class TestBaseCacheSize:
    def test_counts_hot_item_bytes(self):
        trace = skewed_trace()
        key_len = len(b"key:") + 12
        assert base_cache_size(trace) == key_len + 100

    def test_larger_share_needs_more_bytes(self, monkeypatch):
        trace = skewed_trace()
        base = base_cache_size(trace)
        monkeypatch.setattr(calibration, "ACCESS_SHARE", 0.99)
        assert base_cache_size(trace) > base

    def test_empty(self):
        builder = TraceBuilder("e", num_keys=1)
        builder.add(OP_DELETE, 0, 0)
        assert base_cache_size(builder.build()) == 0


class TestFormatTable:
    def test_alignment_and_title(self):
        table = format_table(["a", "bb"], [[1, 2.5], [30, "x"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_float_formatting(self):
        table = format_table(["x"], [[0.123456]])
        assert "0.1235" in table
