"""Tests for repro.workloads.calibration."""

import pytest

from repro.workloads import calibration
from repro.workloads.calibration import calibrate_zipf_skew, coverage_fraction


class TestCoverageFraction:
    def test_uniform_equals_share(self):
        # theta ~ 0: every item equally popular, so covering 80 % of
        # accesses needs 80 % of items.
        assert coverage_fraction(1e-6, 1000) == pytest.approx(0.8, abs=0.01)

    def test_decreases_with_skew(self):
        flat = coverage_fraction(0.3, 10_000)
        skewed = coverage_fraction(0.99, 10_000)
        assert skewed < flat

    def test_full_share(self, monkeypatch):
        monkeypatch.setattr(calibration, "ACCESS_SHARE", 1.0)
        assert coverage_fraction(0.9, 100) == 1.0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            coverage_fraction(0.9, 0)


class TestCalibrateZipfSkew:
    @pytest.mark.parametrize("target", [0.036, 0.069, 0.170])
    def test_hits_paper_targets(self, target):
        n = 20_000
        theta = calibrate_zipf_skew(n, target)
        achieved = coverage_fraction(theta, n)
        assert achieved == pytest.approx(target, rel=0.05)

    def test_more_skewed_target_needs_larger_theta(self):
        n = 10_000
        assert calibrate_zipf_skew(n, 0.03) > calibrate_zipf_skew(n, 0.20)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            calibrate_zipf_skew(100, 0.0)
        with pytest.raises(ValueError):
            calibrate_zipf_skew(100, 1.0)
