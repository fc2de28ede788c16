"""Tests for the two-level pointer-array trie."""

import pytest

from repro.common.hashing import hash_key
from repro.common.records import KVItem
from repro.compression import NullCompressor
from repro.zzone.trie import POINTER_BYTES, SEGMENT_POINTERS, BlockTrie

from tests.zzone.blocks import build_block, height


def empty_block(depth=0, prefix=0):
    return build_block([], NullCompressor(), depth=depth, prefix=prefix)

def split(trie, block):
    left = empty_block(block.depth + 1, block.prefix * 2)
    right = empty_block(block.depth + 1, block.prefix * 2 + 1)
    trie.split_leaf(block, left, right)
    return left, right


class TestBlockTrie:
    def test_empty_trie_finds_nothing(self):
        assert BlockTrie().find_leaf(hash_key(b"x")) is None

    def test_root_leaf_catches_everything(self):
        trie = BlockTrie()
        root = empty_block()
        trie.insert_root(root)
        assert trie.find_leaf(0) is root
        assert trie.find_leaf((1 << 64) - 1) is root

    def test_double_root_rejected(self):
        trie = BlockTrie()
        trie.insert_root(empty_block())
        with pytest.raises(ValueError):
            trie.insert_root(empty_block())

    def test_split_routes_by_top_bit(self):
        trie = BlockTrie()
        root = empty_block()
        trie.insert_root(root)
        left, right = split(trie, root)
        assert trie.find_leaf(0) is left
        assert trie.find_leaf(1 << 63) is right
        assert trie.block_count == 2
        assert height(trie) == 1

    def test_deep_split_path(self):
        trie = BlockTrie()
        root = empty_block()
        trie.insert_root(root)
        left, right = split(trie, root)
        ll, lr = split(trie, left)
        assert trie.find_leaf(0) is ll
        assert trie.find_leaf(1 << 62) is lr
        assert trie.find_leaf(1 << 63) is right  # unbalanced side still found
        assert height(trie) == 2
        assert trie.block_count == 3

    def test_replace_leaf(self):
        trie = BlockTrie()
        root = empty_block()
        trie.insert_root(root)
        replacement = empty_block()
        trie.replace_leaf(root, replacement)
        assert trie.find_leaf(123) is replacement

    def test_replace_wrong_position_rejected(self):
        trie = BlockTrie()
        root = empty_block()
        trie.insert_root(root)
        with pytest.raises(ValueError):
            trie.replace_leaf(root, empty_block(depth=1, prefix=0))

    def test_split_validation(self):
        trie = BlockTrie()
        root = empty_block()
        trie.insert_root(root)
        with pytest.raises(ValueError):
            trie.split_leaf(root, empty_block(1, 1), empty_block(1, 0))

    def test_merge_reverses_split(self):
        trie = BlockTrie()
        root = empty_block()
        trie.insert_root(root)
        left, right = split(trie, root)
        parent = empty_block()
        trie.merge_leaves(left, right, parent)
        assert trie.find_leaf(0) is parent
        assert trie.find_leaf(1 << 63) is parent
        assert trie.block_count == 1

    def test_merge_validation(self):
        trie = BlockTrie()
        root = empty_block()
        trie.insert_root(root)
        left, right = split(trie, root)
        with pytest.raises(ValueError):
            trie.merge_leaves(right, left, empty_block())

    def test_leaves_iterates_all(self):
        trie = BlockTrie()
        root = empty_block()
        trie.insert_root(root)
        left, right = split(trie, root)
        _ll, _lr = split(trie, left)
        assert len(list(trie.leaves())) == 3

    def test_memory_grows_with_allocated_segments(self):
        trie = BlockTrie()
        root = empty_block()
        trie.insert_root(root)
        first = trie.memory_bytes
        assert first >= SEGMENT_POINTERS * POINTER_BYTES
        block = root
        for _ in range(9):  # depth 9 -> positions beyond segment 0
            block, _sibling = split(trie, block)
        assert trie.memory_bytes > first

    def test_probe_telemetry(self):
        trie = BlockTrie()
        root = empty_block()
        trie.insert_root(root)
        split(trie, root)
        trie.find_leaf(0)
        trie.find_leaf(1 << 63)
        assert trie.lookup_count == 2
        assert 1.0 <= trie.average_probes() <= 2.0
