"""Figure 7 — memory-usage breakdown of three cache organisations.

Paper result (60 GB, YCSB items): memcached spends only 56 % of its
memory on KV payload and 32 % on metadata; individually compressing
values adds just 13.5 % more cached items; a Z-zone-only zExpander spends
88 % on (compressed) items with 3.3 % metadata and stores 126 % more
KV-item bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.common.clock import VirtualClock
from repro.common.units import KB, MB
from repro.compression import ZlibCompressor
from repro.memory import (
    UsageBreakdown,
    breakdown_memcached,
    breakdown_zzone,
    fill_memcached,
    fill_zzone,
)
from repro.analysis.tables import format_table
from repro.nzone.memcached import MemcachedZone
from repro.workloads.values import PlacesValueGenerator
from repro.zzone.zzone import ZZone


@dataclass
class Fig07Result:
    breakdowns: List[UsageBreakdown]

    def table(self) -> str:
        rows = []
        for b in self.breakdowns:
            rows.append(
                (
                    b.label,
                    b.total,
                    f"{b.fraction('items'):.1%}",
                    f"{b.fraction('metadata'):.1%}",
                    f"{b.fraction('other'):.1%}",
                    b.uncompressed_items,
                    b.item_count,
                )
            )
        return format_table(
            ["system", "footprint", "items", "metadata", "other",
             "KV bytes (uncompressed)", "item count"],
            rows,
            title="Figure 7: memory breakdown at equal cache size",
        )

    def by_label(self, label_prefix: str) -> UsageBreakdown:
        for b in self.breakdowns:
            if b.label.startswith(label_prefix):
                return b
        raise KeyError(label_prefix)


def _item_stream(seed: int) -> Iterator[Tuple[bytes, bytes]]:
    generator = PlacesValueGenerator(seed=seed)
    for index in itertools.count():
        yield b"ycsb:%012d" % index, generator.generate(index)


def run(capacity: int = 8 * MB, seed: int = 42) -> Fig07Result:
    page_bytes = 64 * KB
    breakdowns: List[UsageBreakdown] = []

    plain = MemcachedZone(capacity, page_bytes=page_bytes)
    resident_bytes, _count = fill_memcached(plain, _item_stream(seed))
    breakdowns.append(breakdown_memcached(plain, resident_bytes))

    compressed = MemcachedZone(capacity, page_bytes=page_bytes)
    resident_bytes, _count = fill_memcached(
        compressed, _item_stream(seed), value_codec=ZlibCompressor()
    )
    breakdowns.append(
        breakdown_memcached(
            compressed, resident_bytes, label="memcached+item-compression"
        )
    )

    zonly = ZZone(capacity, compressor=ZlibCompressor(), clock=VirtualClock())
    fill_zzone(zonly, _item_stream(seed))
    breakdowns.append(breakdown_zzone(zonly))

    return Fig07Result(breakdowns=breakdowns)
