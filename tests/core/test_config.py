"""Tests for ZExpanderConfig validation."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core import ZExpander, ZExpanderConfig


def valid_config(**overrides):
    config = ZExpanderConfig(total_capacity=1 << 20)
    for name, value in overrides.items():
        setattr(config, name, value)
    return config


class TestConfigValidation:
    def test_defaults_valid(self):
        valid_config().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("total_capacity", 0),
            ("nzone_fraction", 0.0),
            ("nzone_fraction", 1.0),
            ("nzone_fraction", 0.97),  # violates MIN_ZONE_FRACTION
            ("target_service_fraction", 0.0),
            ("target_service_fraction", 1.0),
            ("window_seconds", 0.0),
            ("marker_interval_seconds", 0.0),
            ("promotion_policy", "sometimes"),
            ("append_region_bytes", -1),
            ("append_region_bytes", 4096),  # exceeds block_capacity
        ],
    )
    def test_invalid_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            valid_config(**{field: value}).validate()

    def test_region_defaults_to_an_eighth_of_the_block(self):
        config = valid_config()
        assert config.append_region_bytes == config.block_capacity // 8 == 256
        # Derived from the block it belongs to, not a second literal ...
        small = ZExpanderConfig(total_capacity=1 << 20, block_capacity=512)
        assert small.append_region_bytes == 64
        # ... and an explicit 0 (every paper-figure configuration) stays 0.
        assert valid_config(append_region_bytes=0).append_region_bytes == 0

    def test_fastpath_knobs_accepted(self):
        valid_config(append_region_bytes=1024).validate()

    @pytest.mark.parametrize("policy", ["reuse-time", "always", "never"])
    def test_promotion_policies_accepted(self, policy):
        valid_config(promotion_policy=policy).validate()

    def test_paper_defaults(self):
        config = ZExpanderConfig(total_capacity=1 << 20)
        assert config.target_service_fraction == 0.90
        # The 3 % step is the allocator's own default, declared once.
        allocator = ZExpander(config).allocator
        assert allocator.step_bytes == int(config.total_capacity * 0.03)
        assert config.window_seconds == 60.0
        assert config.block_capacity == 2048
