"""Tests for the adaptive space allocator: its decision rule on
hand-fed windows, and its exact decisions inside a seeded replay."""

import pytest

from repro.common.clock import VirtualClock
from repro.core import ZExpander, ZExpanderConfig, replay_trace
from repro.core.adaptive import AdaptiveAllocator
from repro.core.stats import ZExpanderStats
from repro.experiments.common import Scale, build_trace
from repro.workloads.values import PlacesValueGenerator, ValueSource


def make_allocator(**kwargs):
    defaults = dict(
        total_capacity=1000,
        initial_nzone_target=300,
        target_fraction=0.9,
        window_seconds=60.0,
    )
    defaults.update(kwargs)
    return AdaptiveAllocator(**defaults), ZExpanderStats()


def record(stats, nzone=0, zzone=0):
    """Count service the way the core does: on its own stats."""
    stats.serviced_nzone += nzone
    stats.serviced_zzone += zzone


def feed_window(allocator, stats, nzone, zzone, start, end):
    record(stats, nzone, zzone)
    return allocator.maybe_adjust(end, stats)


class TestAdaptiveAllocator:
    def test_first_call_opens_window(self):
        allocator, stats = make_allocator()
        assert allocator.maybe_adjust(0.0, stats) is False

    def test_no_adjust_before_window_ends(self):
        allocator, stats = make_allocator()
        allocator.maybe_adjust(0.0, stats)
        record(stats, zzone=100)
        assert allocator.maybe_adjust(30.0, stats) is False

    def test_low_fraction_grows_nzone(self):
        allocator, stats = make_allocator()
        allocator.maybe_adjust(0.0, stats)
        changed = feed_window(allocator, stats, nzone=50, zzone=50, start=0, end=61)
        assert changed is True
        assert allocator.nzone_target == 330  # +3 % of 1000

    def test_high_fraction_shrinks_nzone(self):
        allocator, stats = make_allocator()
        allocator.maybe_adjust(0.0, stats)
        changed = feed_window(allocator, stats, nzone=99, zzone=1, start=0, end=61)
        assert changed is True
        assert allocator.nzone_target == 270

    def test_within_band_stays(self):
        allocator, stats = make_allocator()
        allocator.maybe_adjust(0.0, stats)
        changed = feed_window(allocator, stats, nzone=90, zzone=10, start=0, end=61)
        assert changed is False
        assert allocator.nzone_target == 300

    def test_empty_window_stays(self):
        allocator, stats = make_allocator()
        allocator.maybe_adjust(0.0, stats)
        assert allocator.maybe_adjust(61.0, stats) is False

    def test_consecutive_same_direction_allowed(self):
        allocator, stats = make_allocator()
        allocator.maybe_adjust(0.0, stats)
        feed_window(allocator, stats, 50, 50, 0, 61)
        changed = feed_window(allocator, stats, 50, 50, 61, 122)
        assert changed is True
        assert allocator.nzone_target == 360

    def test_immediate_reversal_delayed_one_window(self):
        allocator, stats = make_allocator()
        allocator.maybe_adjust(0.0, stats)
        feed_window(allocator, stats, 99, 1, 0, 61)  # shrink N (Z action: expand)
        changed = feed_window(allocator, stats, 50, 50, 61, 122)  # wants to grow N
        assert changed is False  # hysteresis blocks the instant reversal
        changed = feed_window(allocator, stats, 50, 50, 122, 183)
        assert changed is True

    def test_clamped_at_max(self):
        allocator, stats = make_allocator(initial_nzone_target=940)
        allocator.maybe_adjust(0.0, stats)
        changed = feed_window(allocator, stats, 10, 90, 0, 61)
        assert changed is True
        assert allocator.nzone_target == 950  # 1000 - 5 % floor
        changed = feed_window(allocator, stats, 10, 90, 61, 122)
        assert changed is False  # already at the clamp

    def test_clamped_at_min(self):
        allocator, stats = make_allocator(initial_nzone_target=60)
        allocator.maybe_adjust(0.0, stats)
        feed_window(allocator, stats, 100, 0, 0, 61)
        assert allocator.nzone_target == 50

    def test_zzone_target_complements(self):
        allocator, stats = make_allocator()
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
        allocator, stats = make_allocator(
            total_capacity=20,
            initial_nzone_target=10,
        )
        assert allocator.step_bytes == 1
        allocator.maybe_adjust(0.0, stats)
        changed = feed_window(allocator, stats, nzone=50, zzone=50, start=0, end=61)
        assert changed is True
        assert allocator.nzone_target == 11  # moved by exactly the clamp

    def test_tiny_cache_boundary_keeps_moving(self):
        allocator, stats = make_allocator(
            total_capacity=20,
            initial_nzone_target=10,
        )
        allocator.maybe_adjust(0.0, stats)
        start = allocator.nzone_target
        for window in range(3):
            feed_window(
                allocator, stats, 50, 50, window * 61.0, (window + 1) * 61.0
            )
        assert allocator.nzone_target == start + 3

    def test_empty_window_after_traffic_does_not_step(self):
        # A window with zero recorded service must not move the target
        # (no service to divide); only the window bookkeeping resets.
        allocator, stats = make_allocator()
        allocator.maybe_adjust(0.0, stats)
        feed_window(allocator, stats, 50, 50, 0, 61)
        target = allocator.nzone_target
        assert allocator.maybe_adjust(122.0, stats) is False  # traffic-free window
        assert allocator.nzone_target == target


# -- the allocator inside the cache: exact decisions of a seeded replay ------

#: ``(virtual time, nzone_target)`` at every adjustment of a 6,000-request
#: ETC replay through a 32 KiB cache with 5 ms windows (500 requests
#: each), then the final ``(serviced_nzone, serviced_zzone,
#: allocation_adjustments)``.  The first window shrinks the N-zone, the
#: second moves nothing, and two grows follow.
GOLDEN_ADAPTATION = {
    0: (
        [(0.00502, 8847), (0.01504, 9830), (0.03007, 10813)],
        (5566, 726, 3),
    ),
    None: (
        [(0.00502, 8847), (0.01504, 9830), (0.03007, 10813)],
        (5576, 721, 3),
    ),
}


@pytest.mark.parametrize(
    "region", [0, None], ids=["region0", "default_region"]
)
def test_replay_adjusts_at_pinned_times(region):
    trace = build_trace("ETC", Scale(num_keys=400, num_requests=6000, seed=7))
    clock = VirtualClock()
    cache = ZExpander(
        ZExpanderConfig(
            total_capacity=32 * 1024,
            window_seconds=0.005,
            marker_interval_seconds=0.002,
            seed=3,
            append_region_bytes=region,
        ),
        clock=clock,
    )
    adjustments = []

    def on_request(position, op):
        if cache.stats.allocation_adjustments > len(adjustments):
            adjustments.append(
                (round(clock.now(), 6), cache.allocator.nzone_target)
            )

    replay_trace(
        cache,
        trace,
        ValueSource(PlacesValueGenerator(seed=1)),
        clock=clock,
        on_request=on_request,
    )
    stats = cache.stats
    assert (
        adjustments,
        (stats.serviced_nzone, stats.serviced_zzone, stats.allocation_adjustments),
    ) == GOLDEN_ADAPTATION[region]


def test_demotions_from_a_resize_count_in_the_next_window():
    """The N-zone items a shrink demotes are Z-zone service of the window
    the shrink opens.  Here they outnumber that window's one N-zone hit,
    so it asks to grow the N-zone back, which the hysteresis holds; were
    they dropped, the window would read 100 % N-zone and shrink again."""
    clock = VirtualClock()
    cache = ZExpander(
        ZExpanderConfig(
            total_capacity=64 * 1024,
            nzone_fraction=0.5,
            window_seconds=1.0,
            marker_interval_seconds=1e9,
            seed=3,
        ),
        clock=clock,
    )
    keys = [b"key:%04d" % i for i in range(180)]
    for key in keys:
        cache.set(key, b"v" * 120)
    assert cache.stats.demotions == 0
    clock.advance(1.0)
    assert cache.get(keys[-1]) is not None  # closes window 1: shrink
    shrunk = cache.allocator.nzone_target
    assert cache.stats.allocation_adjustments == 1 and shrunk < 32 * 1024
    assert cache.stats.demotions > 1
    clock.advance(1.0)
    cache.get(keys[-1])  # closes window 2
    assert cache.stats.allocation_adjustments == 1
    assert cache.allocator.nzone_target == shrunk
