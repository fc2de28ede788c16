"""Tests for the adaptive space allocator."""

import pytest

from repro.core.adaptive import AdaptiveAllocator


def make_allocator(**kwargs):
    defaults = dict(
        total_capacity=1000,
        initial_nzone_target=300,
        target_fraction=0.9,
        window_seconds=60.0,
    )
    defaults.update(kwargs)
    return AdaptiveAllocator(**defaults)


def record(allocator, nzone=0, zzone=0):
    for _ in range(nzone):
        allocator.record_nzone()
    for _ in range(zzone):
        allocator.record_zzone()


def feed_window(allocator, nzone, zzone, start, end):
    record(allocator, nzone, zzone)
    return allocator.maybe_adjust(end)


class TestAdaptiveAllocator:
    def test_first_call_opens_window(self):
        allocator = make_allocator()
        assert allocator.maybe_adjust(0.0) is False

    def test_no_adjust_before_window_ends(self):
        allocator = make_allocator()
        allocator.maybe_adjust(0.0)
        record(allocator, zzone=100)
        assert allocator.maybe_adjust(30.0) is False

    def test_low_fraction_grows_nzone(self):
        allocator = make_allocator()
        allocator.maybe_adjust(0.0)
        changed = feed_window(allocator, nzone=50, zzone=50, start=0, end=61)
        assert changed is True
        assert allocator.nzone_target == 330  # +3 % of 1000

    def test_high_fraction_shrinks_nzone(self):
        allocator = make_allocator()
        allocator.maybe_adjust(0.0)
        changed = feed_window(allocator, nzone=99, zzone=1, start=0, end=61)
        assert changed is True
        assert allocator.nzone_target == 270

    def test_within_band_stays(self):
        allocator = make_allocator()
        allocator.maybe_adjust(0.0)
        changed = feed_window(allocator, nzone=90, zzone=10, start=0, end=61)
        assert changed is False
        assert allocator.nzone_target == 300

    def test_empty_window_stays(self):
        allocator = make_allocator()
        allocator.maybe_adjust(0.0)
        assert allocator.maybe_adjust(61.0) is False

    def test_consecutive_same_direction_allowed(self):
        allocator = make_allocator()
        allocator.maybe_adjust(0.0)
        feed_window(allocator, 50, 50, 0, 61)
        changed = feed_window(allocator, 50, 50, 61, 122)
        assert changed is True
        assert allocator.nzone_target == 360

    def test_immediate_reversal_delayed_one_window(self):
        allocator = make_allocator()
        allocator.maybe_adjust(0.0)
        feed_window(allocator, 99, 1, 0, 61)  # shrink N (Z action: expand)
        changed = feed_window(allocator, 50, 50, 61, 122)  # wants to grow N
        assert changed is False  # hysteresis blocks the instant reversal
        changed = feed_window(allocator, 50, 50, 122, 183)
        assert changed is True

    def test_clamped_at_max(self):
        allocator = make_allocator(initial_nzone_target=940)
        allocator.maybe_adjust(0.0)
        changed = feed_window(allocator, 10, 90, 0, 61)
        assert changed is True
        assert allocator.nzone_target == 950  # 1000 - 5 % floor
        changed = feed_window(allocator, 10, 90, 61, 122)
        assert changed is False  # already at the clamp

    def test_clamped_at_min(self):
        allocator = make_allocator(initial_nzone_target=60)
        allocator.maybe_adjust(0.0)
        feed_window(allocator, 100, 0, 0, 61)
        assert allocator.nzone_target == 50

    def test_zzone_target_complements(self):
        allocator = make_allocator()
        assert allocator.nzone_target + allocator.zzone_target == 1000

    def test_invalid_initial_target(self):
        with pytest.raises(ValueError):
            make_allocator(initial_nzone_target=0)
        with pytest.raises(ValueError):
            make_allocator(initial_nzone_target=1000)

    # -- regression: tiny caches must still be able to move the boundary ---

    def test_tiny_cache_step_clamps_to_one_byte(self):
        # 20 * 0.03 = 0.6 bytes truncates to 0; before the clamp the
        # boundary froze forever on small caches.
        allocator = make_allocator(
            total_capacity=20,
            initial_nzone_target=10,
        )
        assert allocator.step_bytes == 1
        allocator.maybe_adjust(0.0)
        changed = feed_window(allocator, nzone=50, zzone=50, start=0, end=61)
        assert changed is True
        assert allocator.nzone_target == 11  # moved by exactly the clamp

    def test_tiny_cache_boundary_keeps_moving(self):
        allocator = make_allocator(
            total_capacity=20,
            initial_nzone_target=10,
        )
        allocator.maybe_adjust(0.0)
        start = allocator.nzone_target
        for window in range(3):
            feed_window(
                allocator, 50, 50, window * 61.0, (window + 1) * 61.0
            )
        assert allocator.nzone_target == start + 3

    def test_empty_window_after_traffic_does_not_step(self):
        # A window with zero recorded service must not move the target
        # (fraction_nzone() is None); only the window bookkeeping resets.
        allocator = make_allocator()
        allocator.maybe_adjust(0.0)
        feed_window(allocator, 50, 50, 0, 61)
        target = allocator.nzone_target
        assert allocator.maybe_adjust(122.0) is False  # traffic-free window
        assert allocator.nzone_target == target
