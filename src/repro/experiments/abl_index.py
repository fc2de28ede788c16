"""Ablation — trie-of-blocks index vs per-item indexing.

The paper's §3.1 argues that indexing *blocks* through the linearised
binary trie shrinks metadata from "pointers per item" to "pointers per
block" and keeps lookups to a couple of probes.  This ablation measures
both claims on a filled Z-zone and compares against what per-item
indexes would charge (memcached's 3 pointers/item; a plain 8-byte
pointer-per-item table).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.analysis.tables import format_table
from repro.common.clock import VirtualClock
from repro.common.units import MB
from repro.compression import ZlibCompressor
from repro.workloads.values import PlacesValueGenerator
from repro.zzone.zzone import ZZone

_MEMCACHED_PER_ITEM = 3 * 8  # hash chain + LRU prev/next pointers
_FLAT_PER_ITEM = 8


@dataclass
class AblIndexResult:
    item_count: int
    trie_index_bytes: int
    average_probes: float
    rows: List[Tuple[str, int, float]]

    def table(self) -> str:
        return format_table(
            ["index", "total bytes", "bytes/item"],
            [(name, total, f"{per:.2f}") for name, total, per in self.rows],
            title=(
                "Ablation: index metadata (trie average probes "
                f"{self.average_probes:.2f})"
            ),
        )


def _items(seed: int) -> Iterator[Tuple[bytes, bytes]]:
    generator = PlacesValueGenerator(seed=seed)
    for index in itertools.count():
        yield b"abl:%012d" % index, generator.generate(index)


def run(capacity: int = 2 * MB, probe_gets: int = 4000, seed: int = 42) -> AblIndexResult:
    zone = ZZone(capacity, compressor=ZlibCompressor(), clock=VirtualClock(), seed=seed)
    inserted = []
    for key, value in _items(seed):
        zone.put(key, value)
        inserted.append(key)
        if zone.stats.evicted_items > 0:
            break
    step = max(1, len(inserted) // probe_gets)
    for key in inserted[::step]:
        zone.get(key)
    usage = zone.memory_usage()
    items = max(1, zone.item_count)
    trie_bytes = usage["trie_index"]
    rows = [
        ("block trie (two-level arrays)", trie_bytes, trie_bytes / items),
        (
            "memcached-style (3 ptrs/item)",
            _MEMCACHED_PER_ITEM * items,
            float(_MEMCACHED_PER_ITEM),
        ),
        ("flat pointer table (8 B/item)", _FLAT_PER_ITEM * items, float(_FLAT_PER_ITEM)),
    ]
    return AblIndexResult(
        item_count=items,
        trie_index_bytes=trie_bytes,
        average_probes=zone.average_trie_probes(),
        rows=rows,
    )
