"""Ablation — Z-zone codec choice.

The paper uses LZ4; this reproduction defaults to DEFLATE level 1 (a C
implementation ships with CPython, so block rebuilds stay fast) and
implements LZ4 in pure Python for fidelity.  This ablation quantifies the
trade: effective compression ratio and items held by a Z-zone-only cache
under each codec, including the no-compression baseline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.common.clock import VirtualClock
from repro.common.units import MB
from repro.compression import (
    Compressor,
    LZ4Compressor,
    ModelCompressor,
    NullCompressor,
    ZlibCompressor,
)
from repro.workloads.values import PlacesValueGenerator
from repro.zzone.zzone import ZZone


@dataclass
class AblCodecResult:
    #: (codec name, items held, effective ratio, metadata fraction)
    rows: List[Tuple[str, int, float, float]]

    def table(self) -> str:
        return format_table(
            ["codec", "items held", "effective ratio", "metadata frac"],
            [
                (name, items, f"{ratio:.2f}", f"{meta:.1%}")
                for name, items, ratio, meta in self.rows
            ],
            title="Ablation: Z-zone compression codec",
        )

    def items_for(self, codec_name: str) -> int:
        for name, items, _ratio, _meta in self.rows:
            if name == codec_name:
                return items
        raise KeyError(codec_name)

    def ratio_for(self, codec_name: str) -> float:
        for name, _items, ratio, _meta in self.rows:
            if name == codec_name:
                return ratio
        raise KeyError(codec_name)


def _items(seed: int) -> Iterator[Tuple[bytes, bytes]]:
    generator = PlacesValueGenerator(seed=seed)
    for index in itertools.count():
        yield b"abl:%012d" % index, generator.generate(index)


def run(
    capacity: int = 1 * MB,
    codecs: Sequence[Compressor] = None,
    seed: int = 42,
) -> AblCodecResult:
    if codecs is None:
        codecs = (
            NullCompressor(),
            LZ4Compressor(),
            ZlibCompressor(level=1),
            ZlibCompressor(level=6),
            ModelCompressor(),
        )
    rows = []
    for codec in codecs:
        zone = ZZone(capacity, compressor=codec, clock=VirtualClock(), seed=seed)
        for key, value in _items(seed):
            zone.put(key, value)
            if zone.stats.evicted_items > 0:
                break
        usage = zone.memory_usage()
        ratio = usage["uncompressed_items"] / max(1, zone.used_bytes)
        metadata_fraction = (
            usage["block_metadata"] + usage["trie_index"]
        ) / max(1, zone.used_bytes)
        rows.append((codec.name, zone.item_count, ratio, metadata_fraction))
    return AblCodecResult(rows=rows)
