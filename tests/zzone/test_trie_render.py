"""Tests for the trie renderer and deep-split edge cases."""

from repro.common.clock import VirtualClock
from repro.common.records import KVItem
from repro.compression import NullCompressor
from repro.zzone import ZZone
from repro.zzone.block import Block
from repro.zzone.trie import BlockTrie


class TestRender:
    def test_render_single_root(self):
        trie = BlockTrie()
        trie.insert_root(Block.build([], NullCompressor()))
        text = trie.render()
        assert "1 leaves" in text
        assert "(root)" in text

    def test_render_after_splits(self):
        zone = ZZone(1 << 20, compressor=NullCompressor(),
                     block_capacity=256, clock=VirtualClock())
        for i in range(300):
            zone.put(b"r%05d" % i, b"v" * 40)
        text = zone._trie.render()  # 106 leaves
        assert "more leaves" in text
        assert "items=" in text

    def test_render_binary_labels(self):
        trie = BlockTrie()
        root = Block.build([], NullCompressor())
        trie.insert_root(root)
        left = Block.build([], NullCompressor(), depth=1, prefix=0)
        right = Block.build([], NullCompressor(), depth=1, prefix=1)
        trie.split_leaf(root, left, right)
        text = trie.render()
        lines = text.splitlines()
        assert any(line.strip().startswith("0 ") for line in lines)
        assert any(line.strip().startswith("1 ") for line in lines)


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
        assert zone._trie.height >= 12  # splits had to descend 12+ levels
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
        assert zone._trie.height <= MAX_DEPTH
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
