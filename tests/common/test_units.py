"""Tests for repro.common.units."""

import pytest

from repro.common.units import GB, KB, MB, format_bytes


class TestFormatBytes:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, "0 B"),
            (1023, "1023 B"),
            (2048, "2.00 KB"),
            (int(1.5 * MB), "1.50 MB"),
            (60 * GB, "60.00 GB"),
        ],
    )
    def test_values(self, value, expected):
        assert format_bytes(value) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_bytes(-1)
