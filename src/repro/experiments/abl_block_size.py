"""Ablation — Z-zone block capacity sweep.

DESIGN.md calls out the 2 KB default block size as a design choice: bigger
blocks compress better (Table 2) but cost more per access (decompression
scales with block size) and per write (whole-block rebuild).  This sweep
quantifies both sides so the default can be defended with numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.common.clock import VirtualClock
from repro.common.units import MB
from repro.compression import ZlibCompressor
from repro.workloads.values import PlacesValueGenerator
from repro.zzone.zzone import ZZone

DEFAULT_BLOCK_SIZES = (256, 512, 1024, 2048, 4096)


@dataclass
class AblBlockSizeResult:
    #: (block size, effective ratio, metadata fraction, items/block,
    #:  mean decompressed bytes per GET)
    rows: List[Tuple[int, float, float, float, float]]

    def table(self) -> str:
        return format_table(
            ["block B", "effective ratio", "metadata frac", "items/block",
             "bytes decompressed/GET"],
            [
                (size, f"{ratio:.2f}", f"{meta:.1%}", f"{ipb:.1f}", f"{dec:.0f}")
                for size, ratio, meta, ipb, dec in self.rows
            ],
            title="Ablation: Z-zone block capacity",
        )

    def ratio_series(self) -> List[Tuple[int, float]]:
        return [(size, ratio) for size, ratio, *_rest in self.rows]


def _items(seed: int) -> Iterator[Tuple[bytes, bytes]]:
    generator = PlacesValueGenerator(seed=seed)
    for index in itertools.count():
        yield b"abl:%012d" % index, generator.generate(index)


def run(
    capacity: int = 2 * MB,
    block_sizes: Sequence[int] = DEFAULT_BLOCK_SIZES,
    probe_gets: int = 2000,
    seed: int = 42,
) -> AblBlockSizeResult:
    rows = []
    for block_size in block_sizes:
        zone = ZZone(
            capacity,
            compressor=ZlibCompressor(),
            block_capacity=block_size,
            clock=VirtualClock(),
            seed=seed,
        )
        inserted = []
        for key, value in _items(seed):
            zone.put(key, value)
            inserted.append(key)
            if zone.stats.evicted_items > 0:
                break
        usage = zone.memory_usage()
        ratio = usage["uncompressed_items"] / max(1, zone.used_bytes)
        metadata_fraction = (
            usage["block_metadata"] + usage["trie_index"]
        ) / max(1, zone.used_bytes)
        items_per_block = zone.item_count / max(1, zone.block_count)
        decompressed = 0
        before = zone.stats.decompressions
        step = max(1, len(inserted) // probe_gets)
        probed = 0
        for key in inserted[::step]:
            result = zone.get(key)
            probed += 1
        # Mean uncompressed container bytes touched per GET.
        per_block_bytes = sum(
            leaf.uncompressed_size for leaf in zone._trie.leaves()
        ) / max(1, zone.block_count)
        rows.append(
            (block_size, ratio, metadata_fraction, items_per_block, per_block_bytes)
        )
    return AblBlockSizeResult(rows=rows)
