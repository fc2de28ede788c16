"""Request-level statistics for a :class:`~repro.core.zexpander.ZExpander`."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ZExpanderStats:
    """Counters over the cache's whole lifetime.

    Zone-service counters follow §3.3.1's accounting: only requests that
    involve block (de)compression count as "serviced at the Z-zone";
    filter-answered misses and absent-key DELETEs count for neither zone.
    """

    gets: int = 0
    get_hits_nzone: int = 0
    get_hits_zzone: int = 0
    get_misses: int = 0
    sets: int = 0
    deletes: int = 0
    #: Z-zone items promoted into the N-zone by the re-use-time rule.
    promotions: int = 0
    #: Re-accessed Z-zone items whose re-use time failed the benchmark.
    promotions_declined: int = 0
    #: N-zone evictions admitted into the Z-zone.
    demotions: int = 0
    #: Stale Z-zone versions scheduled for postponed removal after a SET.
    postponed_removals: int = 0
    marker_sets: int = 0
    marker_samples: int = 0
    #: Expensive requests serviced per zone (the adaptive signal).
    serviced_nzone: int = 0
    serviced_zzone: int = 0
    allocation_adjustments: int = 0
    #: Batched reads: ``get_many`` calls served and keys they carried.
    #: Per-key accounting (gets/hits/misses above) is charged identically
    #: to the sequential path; these two only record batch API usage.
    get_many_batches: int = 0
    batched_keys: int = 0

    @property
    def miss_ratio(self) -> float:
        """Misses over GET+SET, SETs counted as hits (paper footnote 2)."""
        denominator = self.gets + self.sets
        if denominator == 0:
            return 0.0
        return self.get_misses / denominator

    @property
    def nzone_service_fraction(self) -> float:
        """Fraction of expensive requests handled by the N-zone."""
        total = self.serviced_nzone + self.serviced_zzone
        if total == 0:
            return 1.0
        return self.serviced_nzone / total

    def snapshot(self) -> "ZExpanderStats":
        """A copy, for windowed delta computations in benches."""
        return ZExpanderStats(**vars(self))

    def delta(self, earlier: "ZExpanderStats") -> "ZExpanderStats":
        """Field-wise difference ``self - earlier``."""
        return ZExpanderStats(
            **{
                name: getattr(self, name) - getattr(earlier, name)
                for name in vars(self)
            }
        )
