"""Tests for repro.workloads.synth and the trace front-ends."""

import random

import pytest

from repro.common.rng import derive_seed
from repro.workloads.facebook import (
    APP_SPEC,
    ETC_SPEC,
    USR_SPEC,
    calibrated_skew,
    generate_facebook_trace,
)
from repro.workloads.synth import KeySizeAssigner, synthesize_trace
from repro.workloads.sizes import FixedSize
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET


def share(trace, operation):
    """Fraction of ``trace``'s requests that are ``operation``."""
    return sum(op == operation for op, _key, _size in trace) / len(trace)
from repro.workloads.values import PlacesValueGenerator
from repro.workloads.ycsb import YCSBConfig, generate_ycsb_trace
from repro.workloads.zipfian import ZipfianGenerator


class TestKeySizeAssigner:
    def test_stable_per_key(self):
        assigner = KeySizeAssigner(seed=1, sampler=FixedSize(7))
        assert assigner.size_for(3) == assigner.size_for(3) == 7

    def test_value_generator_sizes(self):
        assigner = KeySizeAssigner(seed=1, value_generator=PlacesValueGenerator(seed=1))
        assert assigner.size_for(5) == len(PlacesValueGenerator(seed=1).generate(5))

    def test_exactly_one_source_required(self):
        with pytest.raises(ValueError):
            KeySizeAssigner(seed=1)
        with pytest.raises(ValueError):
            KeySizeAssigner(
                seed=1,
                sampler=FixedSize(1),
                value_generator=PlacesValueGenerator(),
            )


class TestSynthesizeTrace:
    def _build(self, **kwargs):
        defaults = dict(
            name="test",
            num_requests=5000,
            num_keys=500,
            rank_generator=ZipfianGenerator(500, seed=1),
            size_assigner=KeySizeAssigner(seed=2, sampler=FixedSize(10)),
            seed=3,
        )
        defaults.update(kwargs)
        return synthesize_trace(**defaults)

    def test_length(self):
        assert len(self._build()) == 5000

    def test_mix_close_to_requested(self):
        trace = self._build(get_fraction=0.9, set_fraction=0.08, delete_fraction=0.02)
        assert share(trace, OP_GET) == pytest.approx(0.9, abs=0.02)
        assert share(trace, OP_SET) == pytest.approx(0.08, abs=0.02)
        assert share(trace, OP_DELETE) == pytest.approx(0.02, abs=0.01)

    def test_sizes_stable_per_key(self):
        trace = self._build()
        seen = {}
        for op, key, size in trace:
            assert seen.setdefault(key, size) == size

    def test_deterministic(self):
        assert list(self._build()) == list(self._build())

    def test_scramble_decorrelates_rank_zero(self):
        counts = self._build().access_counts()
        assert max(counts, key=counts.get) != 0  # rank 0 is not key 0

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            self._build(get_fraction=0.5, set_fraction=0.1)

    def test_negative_fractions_rejected(self):
        with pytest.raises(ValueError):
            self._build(get_fraction=1.1, set_fraction=-0.1)


class TestYCSB:
    def test_default_mix(self):
        trace = generate_ycsb_trace(YCSBConfig(num_requests=5000, num_keys=1000))
        assert share(trace, OP_GET) == pytest.approx(0.95, abs=0.02)

    def test_name(self):
        assert generate_ycsb_trace(YCSBConfig(num_requests=100, num_keys=10)).name == "YCSB"


class TestFacebookTraces:
    def test_usr_tiny_values(self):
        trace = generate_facebook_trace(USR_SPEC, num_requests=2000, num_keys=500)
        sizes = {size for _op, _key, size in trace}
        assert sizes == {2}

    def test_usr_get_dominated(self):
        trace = generate_facebook_trace(USR_SPEC, num_requests=5000, num_keys=500)
        assert share(trace, OP_GET) > 0.99

    def test_etc_has_deletes(self):
        trace = generate_facebook_trace(ETC_SPEC, num_requests=10_000, num_keys=500)
        assert share(trace, OP_DELETE) > 0

    def test_etc_small_value_mass(self):
        trace = generate_facebook_trace(ETC_SPEC, num_requests=10_000, num_keys=2000)
        small = sum(1 for _op, _key, size in trace if size < 16)
        assert 0.25 <= small / len(trace) <= 0.55  # spec: ~40 %

    def test_calibrated_skews_ordered_by_hotness(self):
        n = 5000
        assert calibrated_skew(ETC_SPEC, n) > calibrated_skew(APP_SPEC, n) > calibrated_skew(USR_SPEC, n)

    def test_app_size_model(self):
        sampler = APP_SPEC.size_sampler()
        rng = random.Random(7)
        assert sum(sampler.sample(rng) for _ in range(4000)) / 4000 > 100
