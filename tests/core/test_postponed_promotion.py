"""The served default: write-combining Z-zone, promotion by postponed removal.

At the default config (`append_region_bytes` = an eighth of the block) a
promoting GET schedules the removal of the item's Z-zone copy instead of
rebuilding its block, and the copy is dropped by whichever rebuild next
touches the block.  At region 0 — the paper's configuration, which every
experiment pins — promotion deletes on the spot.
"""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.common.hashing import hash_key
from repro.core import ZExpander, ZExpanderConfig
from tests.nzone.plain import PlainZone
from repro.zzone import ZZone

REGIONS = [pytest.param(None, id="default"), pytest.param(0, id="region0")]


def _cache_with_z_items(region, policy="always"):
    """80 items in a cache whose N-zone holds the newest half of them."""
    clock = VirtualClock()
    cache = ZExpander(
        ZExpanderConfig(
            total_capacity=32 * 1024,
            nzone_fraction=0.1,
            nzone_factory=lambda capacity: PlainZone(capacity),
            adaptive=False,
            marker_interval_seconds=1e9,
            promotion_policy=policy,
            seed=1,
            append_region_bytes=region,
        ),
        clock=clock,
    )
    for i in range(80):
        clock.advance(0.01)
        cache.set(b"key%03d" % i, b"v%03d" % i * 16)
    assert b"key000" not in cache.nzone
    return cache, clock


class TestPromotingGet:
    def _promote_key000(self, region):
        cache, clock = _cache_with_z_items(region)
        zone = cache.zzone
        # Empty every append region, so the victim's block has room.
        for leaf in list(zone._trie.leaves()):
            zone._merge(leaf)
        before = zone.stats.compressions
        demotions = cache.stats.demotions
        clock.advance(0.01)
        assert cache.get(b"key000") == b"v000" * 16
        assert cache.stats.promotions == 1
        assert cache.stats.demotions == demotions + 1
        assert b"key000" in cache.nzone
        return cache, zone.stats.compressions - before

    def test_default_pays_no_compression(self):
        cache, compressions = self._promote_key000(None)
        assert compressions == 0
        assert b"key000" in cache.zzone._pending_removals
        assert cache.stats.postponed_removals == 1
        assert cache.zzone.stats.staged_puts >= 1

    def test_region0_pays_two(self):
        """The paper baseline: one rebuild removes the promoted copy, one
        admits the N-zone's victim."""
        cache, compressions = self._promote_key000(0)
        assert compressions == 2
        assert not cache.zzone._pending_removals
        assert cache.stats.postponed_removals == 0

    def test_promoted_copy_is_shadowed_until_a_rebuild_drops_it(self):
        cache, clock = _cache_with_z_items(None)
        zone = cache.zzone
        cache.get(b"key000")
        # Both copies are resident and counted (stats docs: curr_items
        # includes shadows); the N-zone's is the one served.
        assert cache.item_count == 81
        cache.set(b"key000", b"rewritten")
        assert cache.get(b"key000") == b"rewritten"
        leaf = zone._trie.find_leaf(hash_key(b"key000"))
        zone._sweep_block(leaf, force=True)
        assert b"key000" not in zone._pending_removals
        assert zone.stats.pending_removals_merged >= 1
        assert zone.get(b"key000") is None
        assert cache.get(b"key000") == b"rewritten"
        cache.check_invariants()

    def test_demotion_of_a_promoted_key_cancels_its_removal(self):
        cache, clock = _cache_with_z_items(None)
        cache.get(b"key000")
        assert b"key000" in cache.zzone._pending_removals
        for i in range(100, 160):  # push key000 back out of the N-zone
            clock.advance(0.01)
            cache.set(b"key%03d" % i, b"w" * 64)
        assert b"key000" not in cache.nzone
        assert b"key000" not in cache.zzone._pending_removals
        assert cache.get(b"key000") == b"v000" * 16

    def test_delete_of_a_promoted_key_scrubs_both_zones(self):
        cache, _clock = _cache_with_z_items(None)
        cache.get(b"key000")
        assert cache.delete(b"key000")
        assert cache.get(b"key000") is None
        assert b"key000" not in cache.zzone._pending_removals
        cache.check_invariants()


class TestOneProbePerSet:
    @pytest.mark.parametrize("region", REGIONS)
    def test_set_walks_the_trie_once(self, region):
        cache, _clock = _cache_with_z_items(region)
        trie = cache.zzone._trie
        # An overwrite the N-zone absorbs without evicting: the only
        # Z-zone work is the stale-version probe.
        cache.set(b"key079", b"x" * 64)
        before = trie.lookup_count
        cache.set(b"key079", b"y" * 64)
        assert trie.lookup_count == before + 1

    def test_schedule_removal_reports_whether_it_scheduled(self):
        zone = ZZone(64 * 1024, clock=VirtualClock())
        zone.put(b"here", b"value")
        assert zone.schedule_removal(b"here", hash_key(b"here"), 1.0) is True
        assert zone.schedule_removal(b"ghost", hash_key(b"ghost"), 1.0) is False
        assert list(zone._pending_removals) == [b"here"]


class TestDueRemovals:
    def _zone(self, region):
        clock = VirtualClock()
        zone = ZZone(
            256 * 1024, block_capacity=2048, clock=clock, append_region_bytes=region
        )
        for i in range(400):
            zone.put(b"k%04d" % i, b"v%04d" % i * 10)
        for leaf in list(zone._trie.leaves()):
            zone._merge(leaf)
        return zone, clock

    def test_only_due_keys_are_touched_and_the_heap_stays_bounded(self):
        zone, clock = self._zone(0)
        for i in range(400):
            key = b"k%04d" % i
            zone.schedule_removal(key, hash_key(key), 1.0 if i < 10 else 1e9)
        clock.advance(2.0)
        lookups = zone._trie.lookup_count
        zone._execute_pending_removals()
        # Ten due keys, ten trie walks — not a scan of all 400 pending.
        assert zone._trie.lookup_count == lookups + 10
        assert zone.stats.pending_removals_executed == 10
        assert len(zone._pending_removals) == 390
        # Re-scheduling the same keys over and over supersedes their heap
        # entries; the heap is rebuilt before it outgrows the dict.
        for _ in range(20):
            for i in range(10, 400):
                key = b"k%04d" % i
                zone.schedule_removal(key, hash_key(key), 1e9)
        assert len(zone._removal_deadlines) <= 2 * len(zone._pending_removals) + 64
        zone.check_invariants()

    def test_region0_rebuilds_per_key_and_combining_per_block(self):
        """The paper's removal is one rebuild per key; a write-combining
        zone drops every pending copy of a block in the one rebuild."""
        compressions = {}
        for region in (0, 256):
            zone, clock = self._zone(region)
            for i in range(400):
                key = b"k%04d" % i
                zone.schedule_removal(key, hash_key(key), 1.0)
            clock.advance(2.0)
            blocks = zone.block_count
            before = zone.stats.compressions
            zone._execute_pending_removals()
            compressions[region] = zone.stats.compressions - before
            assert not zone._pending_removals
            assert zone.item_count == 0
            assert all(zone.get(b"k%04d" % i) is None for i in range(400))
            zone.check_invariants()
        assert compressions[0] == 400
        assert compressions[256] == blocks
        assert zone.stats.pending_removals_executed == blocks
        assert zone.stats.pending_removals_merged == 400 - blocks

    def test_sweep_drops_stale_copies_before_any_live_item(self):
        zone, clock = self._zone(256)
        stale = [b"k%04d" % i for i in range(0, 400, 2)]
        for key in stale:
            # A promoting GET marks the item hot in the Access Filter ...
            assert zone.get(key) is not None
            zone.schedule_removal(key, hash_key(key), 1e9)
        live_before = zone.item_count - len(stale)
        for key in (b"k%04d" % i for i in range(1, 400, 2)):
            hashed = hash_key(key)
            zone._trie.find_leaf(hashed).record_get(hashed, clock.now())
        for leaf in list(zone._trie.leaves()):
            zone._sweep_block(leaf)
        # ... and is swept regardless, long before its deadline, while
        # every filter-hot live item survives.
        assert not zone._pending_removals
        assert zone.stats.evicted_items == 0
        assert zone.item_count == live_before
        assert all(zone.get(key) is None for key in stale)
        zone.check_invariants()


@pytest.mark.parametrize("region", REGIONS)
def test_a_refused_demotion_never_serves_the_older_value(region):
    """v1 sits demoted in the Z-zone when a SET writes a v2 that no zone
    can keep: the N-zone evicts it at once and the Z-zone refuses it as
    larger than its whole budget.  The SET was acknowledged, so v1 must
    not come back; the only legal answer is a miss."""
    clock = VirtualClock()
    cache = ZExpander(
        ZExpanderConfig(
            total_capacity=256 * 1024,
            nzone_fraction=0.5,
            adaptive=False,
            marker_interval_seconds=1e9,
            promotion_policy="never",
            seed=1,
            append_region_bytes=region,
        ),
        clock=clock,
    )
    cache.set(b"victim", b"v1" * 20)
    for i in range(2000):  # push v1 out of the N-zone
        clock.advance(1e-4)
        cache.set(b"filler:%05d" % i, b"f" * 40)
        if b"victim" not in cache.nzone:
            break
    assert cache.zzone.get(b"victim") is not None
    cache.set(b"victim", b"v" * (cache.zzone.capacity + 100))
    assert b"victim" not in cache.nzone
    assert cache.get(b"victim") is None
    assert cache.zzone.get(b"victim") is None
    assert b"victim" not in cache.zzone._pending_removals
    cache.check_invariants()


@pytest.mark.parametrize("region", REGIONS)
def test_an_overwrite_no_zone_can_hold_never_serves_the_n_zone_copy(region):
    """The store model's shrunk example: v1 still in the N-zone when a SET
    writes a v2 larger than the whole cache.  The N-zone spilled v2 and
    kept v1, which the next GET served."""
    cache = ZExpander(
        ZExpanderConfig(
            total_capacity=3 * 1024,
            block_capacity=512,
            nzone_fraction=0.3,
            seed=17,
            append_region_bytes=region,
        ),
        clock=VirtualClock(),
    )
    cache.set(b"st:00", b"0:1:")
    cache.set(b"st:00", b"z" * 3 * 1024)
    assert cache.get(b"st:00") is None
    assert b"st:00" not in cache
    cache.check_invariants()


_WORDS = (
    b"alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo "
    b"lima mike november oscar papa quebec romeo sierra tango uniform "
    b"victor whiskey xray yankee zulu"
).split()


def _salad(rng: random.Random) -> bytes:
    size = max(20, min(250, int(rng.gauss(90, 30))))
    out = b""
    while len(out) < size:
        out += rng.choice(_WORDS) + b" "
    return out[:size]


@pytest.mark.parametrize("region", REGIONS)
def test_keys_resident_only_by_compression_never_miss(region):
    """An in-process analogue of the ledger's ``cold_get``.

    5,500 keys whose user bytes equal the whole cache, so they are
    resident only because the Z-zone compresses; uniform GETs promote,
    promotions demote, and the zone's use settles after a few passes.  A
    read-only load never re-fills a key it lost, so one eviction is a miss
    forever: there must be none — at the paper's region 0, and at the
    served default, whose raw staged bytes and shadowed copies must fit
    in the headroom compression leaves.  (They do not at region 512: that
    is how the default was sized.)
    """
    rng = random.Random(7)
    clock = VirtualClock()
    cache = ZExpander(
        ZExpanderConfig(
            total_capacity=512 * 1024, seed=42, append_region_bytes=region
        ),
        clock=clock,
    )
    values = {b"key:%08d" % i: _salad(rng) for i in range(5500)}
    keys = list(values)
    rng.shuffle(keys)
    for key in keys:
        clock.advance(1e-5)
        cache.set(key, values[key])
    assert sum(map(len, keys)) + sum(map(len, values.values())) > 512 * 1024
    for _ in range(10 * len(keys)):
        clock.advance(1e-5)
        key = rng.choice(keys)
        assert cache.get(key) == values[key]
    assert cache.stats.get_misses == 0
    assert cache.stats.promotions > len(keys)
    assert cache.zzone.stats.evicted_items == 0
    cache.check_invariants()
