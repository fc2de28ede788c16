"""Tests for repro.workloads.values."""

import statistics

from repro.compression import LZ4Compressor, container_compression_ratio, individual_compression_ratio
from repro.workloads.trace import TraceBuilder, OP_SET
from repro.workloads.values import (
    PlacesValueGenerator,
    SizedValueSource,
    TweetValueGenerator,
    ValueSource,
)


class TestTweetValueGenerator:
    def test_deterministic_per_index(self):
        generator = TweetValueGenerator(seed=1)
        assert generator.generate(5) == generator.generate(5)

    def test_indices_differ(self):
        generator = TweetValueGenerator(seed=1)
        assert generator.generate(1) != generator.generate(2)

    def test_seed_changes_corpus(self):
        assert TweetValueGenerator(seed=1).generate(0) != TweetValueGenerator(seed=2).generate(0)

    def test_length_cap(self):
        generator = TweetValueGenerator(seed=3)
        assert all(len(generator.generate(i)) <= 140 for i in range(300))

    def test_average_size_near_tweets(self):
        generator = TweetValueGenerator(seed=4)
        mean = statistics.mean(len(v) for v in generator.corpus(1000))
        assert 60 <= mean <= 110  # paper's tweet corpus averages 92 B

    def test_individually_incompressible_under_lz4(self):
        values = list(TweetValueGenerator(seed=5).corpus(500))
        ratio = individual_compression_ratio(values, LZ4Compressor())
        assert 0.95 <= ratio <= 1.1  # Table 2: 0.99

    def test_batched_compression_pays(self):
        values = list(TweetValueGenerator(seed=5).corpus(500))
        codec = LZ4Compressor()
        batched = container_compression_ratio(values, 2048, codec)
        assert batched > 1.2  # Table 2: 1.34 at 2 KB


class TestPlacesValueGenerator:
    def test_deterministic(self):
        generator = PlacesValueGenerator(seed=1)
        assert generator.generate(9) == generator.generate(9)

    def test_average_size_near_places(self):
        mean = statistics.mean(len(v) for v in PlacesValueGenerator(seed=2).corpus(1000))
        assert 85 <= mean <= 130  # paper's Places records average 100.9 B

    def test_individually_compressible(self):
        values = list(PlacesValueGenerator(seed=3).corpus(500))
        ratio = individual_compression_ratio(values, LZ4Compressor())
        assert ratio > 1.1  # Table 2: 1.28

    def test_protobuf_varint_tag_present(self):
        # Field 1, wire type 0 -> tag byte 0x08 leads every record.
        assert PlacesValueGenerator(seed=4).generate(0)[0] == 0x08


class TestValueSource:
    def test_memoises(self):
        source = ValueSource(TweetValueGenerator(seed=1))
        first = source.value(3)
        assert source.value(3) is first

    def test_size(self):
        source = ValueSource(PlacesValueGenerator(seed=1))
        assert source.size(7) == len(source.value(7))

    def test_cache_bound(self):
        source = ValueSource(TweetValueGenerator(seed=1), max_cache=2)
        for i in range(10):
            source.value(i)
        assert len(source._cache) <= 2


class TestSizedValueSource:
    def _trace(self):
        builder = TraceBuilder("t", num_keys=10)
        builder.add(OP_SET, 0, 5)
        builder.add(OP_SET, 1, 300)
        return builder.build()

    def test_matches_recorded_sizes(self):
        source = SizedValueSource(self._trace(), PlacesValueGenerator(seed=1))
        assert len(source.value(0)) == 5
        assert len(source.value(1)) == 300

    def test_tiles_short_content(self):
        source = SizedValueSource(self._trace(), PlacesValueGenerator(seed=1))
        value = source.value(1)
        assert len(value) == 300  # generator output is ~100 B, tiled x3

    def test_unknown_key_uses_native_size(self):
        source = SizedValueSource(self._trace(), PlacesValueGenerator(seed=1))
        value = source.value(9)
        assert len(value) > 0
