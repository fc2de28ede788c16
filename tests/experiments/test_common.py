"""Tests for experiment plumbing (scales, trace caching, value sources)."""

import pytest

from repro.experiments.common import (
    BENCH_SCALE,
    Scale,
    base_size_of,
    build_trace,
    build_value_source,
)
from repro.workloads.trace import OP_GET

#: A scale small enough for unit tests.
TEST_SCALE = Scale(num_keys=3_000, num_requests=60_000, seed=42)


class TestScale:
    def test_scales_hashable(self):
        assert hash(BENCH_SCALE) != hash(TEST_SCALE)


class TestBuildTrace:
    def test_memoised(self):
        scale = Scale(num_keys=1000, num_requests=3000, seed=5)
        assert build_trace("YCSB", scale) is build_trace("YCSB", scale)

    def test_mix_override_changes_trace(self):
        scale = Scale(num_keys=1000, num_requests=5000, seed=5)
        default = build_trace("YCSB", scale)
        all_get = build_trace("YCSB", scale, get_fraction=1.0, set_fraction=0.0)
        assert all(op == OP_GET for op, _key, _size in all_get)
        assert not all(op == OP_GET for op, _key, _size in default)

    def test_mix_override_rejected_for_facebook(self):
        scale = Scale(num_keys=1000, num_requests=3000, seed=5)
        with pytest.raises(ValueError):
            build_trace("ETC", scale, get_fraction=1.0)

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            build_trace("NOPE", TEST_SCALE)


class TestValueSources:
    def test_ycsb_values_match_trace_sizes(self):
        scale = Scale(num_keys=500, num_requests=2000, seed=5)
        trace = build_trace("YCSB", scale)
        source = build_value_source("YCSB", trace, seed=scale.seed)
        for _op, key_id, size in list(trace)[:100]:
            assert len(source.value(key_id)) == size

    def test_facebook_values_match_trace_sizes(self):
        scale = Scale(num_keys=500, num_requests=2000, seed=5)
        trace = build_trace("USR", scale)
        source = build_value_source("USR", trace, seed=scale.seed)
        for _op, key_id, size in list(trace)[:100]:
            assert len(source.value(key_id)) == size


class TestBaseSize:
    def test_positive_and_memoised(self):
        scale = Scale(num_keys=1000, num_requests=20_000, seed=5)
        size = base_size_of("YCSB", scale)
        assert size > 0
        assert base_size_of("YCSB", scale) == size

    def test_smaller_than_dataset(self):
        scale = Scale(num_keys=1000, num_requests=20_000, seed=5)
        trace = build_trace("YCSB", scale)
        dataset = sum(trace.key_sizes().values())
        assert base_size_of("YCSB", scale) < dataset
