"""Analytic codec that charges a calibrated ratio without byte-level work.

Large parameter sweeps (Figure 5's cache-size grid, the Figure 15 timeline)
replay millions of requests; running DEFLATE on every 2 KB block would make
the benches CPU-bound on codec work that is not the quantity under study.
``ModelCompressor`` keeps the original bytes (so GETs still return correct
data) and charges ``stored_size`` from a ratio model — by default the
container-size-dependent ratios measured for the tweet corpus (Table 2).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

from repro.compression.base import Compressed, Compressor

#: (container_size, ratio) calibration points following Table 2's "Tweets"
#: row.  Intermediate sizes interpolate linearly; sizes beyond the last
#: point use the last ratio.
TWEETS_TABLE2_POINTS: Tuple[Tuple[int, float], ...] = (
    (1, 0.99),
    (256, 1.10),
    (512, 1.21),
    (1024, 1.30),
    (2048, 1.34),
    (4096, 1.41),
)


def interpolated_ratio(
    points: Sequence[Tuple[int, float]],
) -> Callable[[int], float]:
    """Build a ratio(size) function interpolating calibration ``points``."""
    if not points:
        raise ValueError("at least one calibration point is required")
    ordered = sorted(points)

    def ratio(size: int) -> float:
        if size <= ordered[0][0]:
            return ordered[0][1]
        for (lo_size, lo_ratio), (hi_size, hi_ratio) in zip(ordered, ordered[1:]):
            if size <= hi_size:
                span = hi_size - lo_size
                weight = (size - lo_size) / span
                return lo_ratio + weight * (hi_ratio - lo_ratio)
        return ordered[-1][1]

    return ratio


class ModelCompressor(Compressor):
    """Charge a modelled ratio; keep payload bytes verbatim.

    ``ratio_fn`` maps the container's uncompressed size to a compression
    ratio (original / stored).  The default reproduces the tweet corpus's
    Table 2 behaviour.
    """

    def __init__(
        self, ratio_fn: Optional[Callable[[int], float]] = None, name: str = "model"
    ) -> None:
        self._ratio_fn = ratio_fn or interpolated_ratio(TWEETS_TABLE2_POINTS)
        self.name = name

    def compress(self, data: bytes) -> Compressed:
        if not data:
            return Compressed(payload=data, stored_size=0)
        ratio = self._ratio_fn(len(data))
        if ratio <= 0:
            raise ValueError(f"ratio model returned non-positive ratio {ratio}")
        stored = max(1, math.ceil(len(data) / ratio))
        return Compressed(payload=data, stored_size=stored)

    def decompress(self, compressed: Compressed) -> bytes:
        return compressed.payload
