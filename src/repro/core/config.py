"""Configuration for a :class:`~repro.core.zexpander.ZExpander` instance."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.errors import ConfigurationError
from repro.compression.base import Compressor
from repro.core.adaptive import MIN_ZONE_FRACTION
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
    * ``window_seconds`` — adaptation check period, one minute (§3.3.1).
    * ``block_capacity`` — Z-zone container capacity, 2 KB (§3.2).

    §3.3's other constants — the 3 % adjustment step, the ±2 % slack,
    the 5 % zone floor and the marker weights — are module constants of
    :mod:`repro.core.adaptive` and :mod:`repro.core.marker`.
    """

    total_capacity: int
    nzone_fraction: float = 0.3
    nzone_factory: Optional[Callable[[int], NZone]] = None
    compressor: Optional[Compressor] = None
    block_capacity: int = DEFAULT_BLOCK_CAPACITY
    adaptive: bool = True
    target_service_fraction: float = 0.90
    window_seconds: float = 60.0
    marker_interval_seconds: float = 10.0
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
        if self.window_seconds <= 0:
            raise ConfigurationError("window_seconds must be positive")
        if self.marker_interval_seconds <= 0:
            raise ConfigurationError("marker_interval_seconds must be positive")
        if not MIN_ZONE_FRACTION <= self.nzone_fraction <= 1 - MIN_ZONE_FRACTION:
            raise ConfigurationError(
                f"nzone_fraction must be in [{MIN_ZONE_FRACTION}, "
                f"{1 - MIN_ZONE_FRACTION}], the allocator's floor for each zone"
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
