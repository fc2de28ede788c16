"""The Z-zone: the compressed, compact, cold-data partition (§3 of the paper).

KV items are compacted into blocks (default capacity 2 KB uncompressed),
each block compressed as one container and indexed by a balanced binary
trie over hashed-key prefixes.  Two 16-byte Bloom filters ride on every
block: the *Content Filter* avoids decompressing blocks for absent keys,
and the *Access Filter* drives the sweep replacement policy.
"""

from repro.zzone.block import Block, LargeItem, decode_items
from repro.zzone.trie import BlockTrie
from repro.zzone.zzone import ZZone, ZZoneStats

__all__ = [
    "Block",
    "BlockTrie",
    "LargeItem",
    "ZZone",
    "ZZoneStats",
    "decode_items",
]
