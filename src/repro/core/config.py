"""Configuration for a :class:`~repro.core.zexpander.ZExpander` instance."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.compression.base import Compressor
from repro.faults.plan import FaultPlan
from repro.nzone.base import NZone
from repro.zzone.zzone import DEFAULT_BLOCK_CAPACITY


@dataclass
class ZExpanderConfig:
    """All tunables, defaulted to the paper's choices — except
    ``append_region_bytes``, whose default is what ``cli serve`` runs
    (see the field); paper-figure configurations pass 0.

    * ``target_service_fraction`` — the fraction of (expensive) requests
      that should be handled by the N-zone; 90 % by default (§3.3.1).
    * ``adjustment_step`` — each adaptation moves the N-zone target by 3 %
      of the total cache space (§3.3.1).
    * ``window_seconds`` — adaptation check period, one minute (§3.3.1).
    * ``block_capacity`` — Z-zone container capacity, 2 KB (§3.2).
    * ``benchmark_weights`` — weighted average over the three most recent
      marker samples (§3.3.2), most recent first.
    """

    total_capacity: int
    nzone_fraction: float = 0.3
    nzone_factory: Optional[Callable[[int], NZone]] = None
    compressor: Optional[Compressor] = None
    block_capacity: int = DEFAULT_BLOCK_CAPACITY
    adaptive: bool = True
    target_service_fraction: float = 0.90
    service_fraction_slack: float = 0.02
    adjustment_step: float = 0.03
    window_seconds: float = 60.0
    marker_interval_seconds: float = 10.0
    benchmark_weights: Tuple[float, float, float] = (0.5, 0.3, 0.2)
    min_zone_fraction: float = 0.05
    seed: int = 0
    #: Ablation knobs: "reuse-time" is the paper's §3.3.2 rule; "always"
    #: promotes every Z-zone hit; "never" leaves items in place.
    promotion_policy: str = "reuse-time"
    use_content_filter: bool = True
    use_access_filter: bool = True
    #: Optional seeded fault plan; setting one wraps the codec in a
    #: fault injector and arms the corruption hooks (chaos testing).
    fault_plan: Optional[FaultPlan] = None
    #: Per-block write-combining append region size.  Unset, it is one
    #: eighth of ``block_capacity`` (256 B at 2 KB): puts are staged raw
    #: and a block is recompressed only when its region fills, and a
    #: promoted item's Z-zone copy is removed by postponement.  0 is the
    #: paper's write — every put reconstructs its block — and what every
    #: paper-figure configuration passes explicitly.
    append_region_bytes: Optional[int] = None
    #: Z-zone fast path: decompressed-container LRU capacity in blocks.
    #: 0 (the default) disables the cache.  Its memory is host-side
    #: scratch, metered by a gauge but not charged to the cache budget.
    decompressed_cache_blocks: int = 0

    def __post_init__(self) -> None:
        if self.append_region_bytes is None:
            self.append_region_bytes = self.block_capacity // 8

    def validate(self) -> None:
        if self.total_capacity <= 0:
            raise ConfigurationError("total_capacity must be positive")
        if not 0.0 < self.nzone_fraction < 1.0:
            raise ConfigurationError("nzone_fraction must be in (0, 1)")
        if not 0.0 < self.target_service_fraction < 1.0:
            raise ConfigurationError("target_service_fraction must be in (0, 1)")
        if not 0.0 < self.adjustment_step < 0.5:
            raise ConfigurationError("adjustment_step must be in (0, 0.5)")
        if self.window_seconds <= 0:
            raise ConfigurationError("window_seconds must be positive")
        if self.marker_interval_seconds <= 0:
            raise ConfigurationError("marker_interval_seconds must be positive")
        if len(self.benchmark_weights) != 3 or any(
            w < 0 for w in self.benchmark_weights
        ):
            raise ConfigurationError("benchmark_weights must be 3 non-negatives")
        if sum(self.benchmark_weights) <= 0:
            raise ConfigurationError("benchmark_weights must not all be zero")
        if not 0.0 < self.min_zone_fraction < 0.5:
            raise ConfigurationError("min_zone_fraction must be in (0, 0.5)")
        if not self.min_zone_fraction <= self.nzone_fraction <= 1 - self.min_zone_fraction:
            raise ConfigurationError(
                "nzone_fraction must respect min_zone_fraction on both sides"
            )
        if self.promotion_policy not in ("reuse-time", "always", "never"):
            raise ConfigurationError(
                f"unknown promotion_policy {self.promotion_policy!r}"
            )
        if self.fault_plan is not None and not isinstance(
            self.fault_plan, FaultPlan
        ):
            raise ConfigurationError(
                f"fault_plan must be a FaultPlan, got {type(self.fault_plan).__name__}"
            )
        if self.append_region_bytes < 0:
            raise ConfigurationError("append_region_bytes must be >= 0")
        if self.append_region_bytes > self.block_capacity:
            raise ConfigurationError(
                "append_region_bytes must not exceed block_capacity "
                f"({self.append_region_bytes} > {self.block_capacity})"
            )
        if self.decompressed_cache_blocks < 0:
            raise ConfigurationError("decompressed_cache_blocks must be >= 0")
