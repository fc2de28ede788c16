"""Tests for repro.compression.model."""

import pytest

from repro.compression.model import (
    ModelCompressor,
    TWEETS_TABLE2_POINTS,
    interpolated_ratio,
)


class TestInterpolatedRatio:
    def test_exact_points(self):
        ratio = interpolated_ratio(TWEETS_TABLE2_POINTS)
        assert ratio(2048) == pytest.approx(1.34)
        assert ratio(256) == pytest.approx(1.10)

    def test_interpolates_between(self):
        ratio = interpolated_ratio([(100, 1.0), (200, 2.0)])
        assert ratio(150) == pytest.approx(1.5)

    def test_clamps_below(self):
        ratio = interpolated_ratio([(100, 1.2), (200, 2.0)])
        assert ratio(10) == pytest.approx(1.2)

    def test_clamps_above(self):
        ratio = interpolated_ratio(TWEETS_TABLE2_POINTS)
        assert ratio(1 << 20) == pytest.approx(1.41)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            interpolated_ratio([])


class TestModelCompressor:
    def test_roundtrip_identity_payload(self):
        codec = ModelCompressor()
        data = b"anything at all"
        compressed = codec.compress(data)
        assert codec.decompress(compressed) == data

    def test_stored_size_follows_model(self):
        codec = ModelCompressor(ratio_fn=lambda size: 2.0)
        assert codec.compress(b"x" * 1000).stored_size == 500

    def test_stored_size_rounds_up(self):
        codec = ModelCompressor(ratio_fn=lambda size: 3.0)
        assert codec.compress(b"x" * 10).stored_size == 4

    def test_empty_input(self):
        assert ModelCompressor().compress(b"").stored_size == 0

    def test_non_positive_ratio_rejected(self):
        codec = ModelCompressor(ratio_fn=lambda size: 0.0)
        with pytest.raises(ValueError):
            codec.compress(b"data")

    def test_default_follows_tweets_calibration(self):
        codec = ModelCompressor()
        stored = codec.compress(b"x" * 2048).stored_size
        assert stored == pytest.approx(2048 / 1.34, abs=2)
