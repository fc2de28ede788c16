"""Z-zone helpers for tests: a block from a list of items, a trie's height."""

from repro.zzone.block import Block, item_entry


def build_block(items, compressor, depth=0, prefix=0):
    """A block holding ``items`` (any order; sorted here)."""
    entries = sorted(item_entry(item.key, item.value, item.hashed_key) for item in items)
    return Block.from_entries(entries, compressor, depth, prefix)


def height(trie):
    """The deepest level with leaves."""
    return max(leaf.depth for leaf in trie.leaves())
