"""Deep-split edge cases of the Z-zone trie."""

from repro.common.clock import VirtualClock
from repro.compression import NullCompressor
from repro.zzone import ZZone

from tests.zzone.blocks import height


class TestDeepSplit:
    def test_clustered_hashes_split_recursively(self):
        """Items whose hashes share a long prefix force nested splits."""
        zone = ZZone(1 << 20, compressor=NullCompressor(),
                     block_capacity=256, clock=VirtualClock())
        # Bypass put() hashing: crafted hashes share the top 12 bits so
        # the first dozen splits cannot separate them; the differing bits
        # sit at depth 12-17.
        base = 0xABC << 52
        for i in range(24):
            key = b"clustered:%04d" % i
            hashed = base | (i << 46)
            zone.put(key, b"v" * 40, hashed=hashed)
        zone.check_invariants()
        assert height(zone._trie) >= 12  # splits had to descend 12+ levels
        for i in range(24):
            result = zone.get(b"clustered:%04d" % i, hashed=base | (i << 46))
            assert result is not None and result[0] == b"v" * 40

    def test_inseparable_hashes_stay_in_oversized_block(self):
        """Keys agreeing on the first 48 hash bits cannot be split apart:
        the zone keeps them in one oversized block instead of exploding
        the trie (the depth cap + sparse directory)."""
        from repro.zzone.trie import MAX_DEPTH

        zone = ZZone(1 << 20, compressor=NullCompressor(),
                     block_capacity=256, clock=VirtualClock())
        base = 0xDEADBEEFCAFE << 16  # identical top 48 bits
        for i in range(24):
            zone.put(b"twin:%04d" % i, b"v" * 40, hashed=base | i)
        zone.check_invariants()
        assert height(zone._trie) <= MAX_DEPTH
        for i in range(24):
            result = zone.get(b"twin:%04d" % i, hashed=base | i)
            assert result is not None and result[0] == b"v" * 40
        # The inseparable items ended up sharing one over-capacity block.
        biggest = max(leaf.item_count for leaf in zone._trie.leaves())
        assert biggest == 24

    def test_mixed_cluster_and_spread(self):
        zone = ZZone(1 << 20, compressor=NullCompressor(),
                     block_capacity=256, clock=VirtualClock())
        for i in range(20):
            zone.put(b"c%04d" % i, b"v" * 40, hashed=(0xFF << 56) | (i << 44))
        for i in range(100):
            zone.put(b"s%04d" % i, b"v" * 40)  # normal hashing
        zone.check_invariants()
        for i in range(20):
            assert zone.get(b"c%04d" % i, hashed=(0xFF << 56) | (i << 44)) is not None
