"""The zExpander cache (§3).

Request routing (§3):

* GET — try the N-zone; on miss, try the Z-zone.  A Z-zone hit may promote
  the item into the N-zone if its measured re-use time beats the N-zone's
  locality benchmark (§3.3.2).  With a write-combining Z-zone the promoted
  copy's removal is postponed like a SET's stale version; at region 0 it
  is deleted on the spot.
* SET — always admitted by the N-zone.  If an older version may live in
  the Z-zone (Content-Filter check), its removal is postponed by at least
  the locality benchmark so it can be merged with a future eviction
  (§3.3.2).
* DELETE — performed at both zones.
* N-zone evictions are admitted into the Z-zone (demotion); marker keys
  are intercepted instead and update the benchmark.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.clock import VirtualClock
from repro.common.errors import ItemTooLargeError
from repro.common.hashing import hash_key
from repro.core.adaptive import AdaptiveAllocator
from repro.core.config import ZExpanderConfig
from repro.core.marker import LocalityBenchmark, MARKER_VALUE, is_marker_key
from repro.core.stats import ZExpanderStats
from repro.nzone.base import EvictedItem, NZone
from repro.nzone.hpcache import HPCacheZone
from repro.zzone.zzone import ZZone


def additive_views(cache: "ZExpander") -> List[Tuple[str, Callable, str]]:
    """Every number an instance reports that adds up across instances,
    as (metric suffix, reader of one instance, help).

    The one list both bindings are built from: ``ZExpander.bind_metrics``
    registers each reader over itself, ``ShardedZExpander.bind_metrics``
    its sum over the shards, so a fleet and a single cache expose the
    same names.  ``cache`` only decides which entries apply (the
    allocator's target exists under ``adaptive`` alone).
    """

    def fields(prefix: str, path: str, stats) -> list:
        owner = type(stats).__name__
        return [
            (prefix + name, attrgetter(f"{path}.{name}"), f"{owner}.{name}")
            for name in vars(stats)
        ]

    views = fields("", "stats", cache.stats)
    views += fields("zzone_", "zzone.stats", cache.zzone.stats)
    views += [
        ("used_bytes", attrgetter("used_bytes"), "resident bytes"),
        ("capacity_bytes", attrgetter("capacity"), "total budget"),
        ("item_count", attrgetter("item_count"), "resident items"),
        ("nzone_capacity_bytes", attrgetter("nzone.capacity"),
         "current N-zone budget (moves under adaptation)"),
        ("zzone_capacity_bytes", attrgetter("zzone.capacity"),
         "current Z-zone budget (moves under adaptation)"),
    ]
    if cache.allocator is not None:
        views.append(
            ("nzone_target_bytes", attrgetter("allocator.nzone_target"),
             "adaptive allocator's N-zone target")
        )
    return views


class ZExpander:
    """Two-zone KV cache: fast N-zone + compressed Z-zone."""

    def __init__(
        self,
        config: ZExpanderConfig,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.clock = clock if clock is not None else VirtualClock()
        self.stats = ZExpanderStats()
        nzone_capacity = int(config.total_capacity * config.nzone_fraction)
        factory = config.nzone_factory or (
            lambda capacity: HPCacheZone(capacity, seed=config.seed)
        )
        self.nzone: NZone = factory(nzone_capacity)
        #: Armed only by a configured fault plan; ``None`` in production
        #: paths, so chaos machinery costs a single attribute.
        self.fault_injector = None
        #: Write-ahead journal attached by the durability layer; ``None``
        #: (the default) keeps set/delete to one attribute test.
        self.journal = None
        compressor = config.compressor
        if config.fault_plan is not None:
            from repro.compression.zlibc import ZlibCompressor
            from repro.faults.codec import FaultyCompressor
            from repro.faults.injector import FaultInjector

            self.fault_injector = FaultInjector(config.fault_plan)
            inner = compressor if compressor is not None else ZlibCompressor()
            compressor = FaultyCompressor(inner, self.fault_injector)
        self.zzone = ZZone(
            capacity=config.total_capacity - nzone_capacity,
            compressor=compressor,
            block_capacity=config.block_capacity,
            clock=self.clock,
            seed=config.seed,
            use_content_filter=config.use_content_filter,
            use_access_filter=config.use_access_filter,
            faults=self.fault_injector,
            append_region_bytes=config.append_region_bytes,
        )
        self.benchmark = LocalityBenchmark()
        self.allocator: Optional[AdaptiveAllocator] = None
        if config.adaptive:
            self.allocator = AdaptiveAllocator(
                total_capacity=config.total_capacity,
                initial_nzone_target=nzone_capacity,
                target_fraction=config.target_service_fraction,
                window_seconds=config.window_seconds,
            )
        self._last_marker_time: Optional[float] = None
        self._marker_interval = config.marker_interval_seconds

    # -- public API ----------------------------------------------------------

    # ``hashed`` on the public calls is ``key``'s hash_key when the caller
    # already has it (``ShardedZExpander`` hashes to pick the shard): one
    # hash then serves the N-zone index and the Z-zone.

    def get(self, key: bytes, hashed: Optional[int] = None) -> Optional[bytes]:
        """Look up ``key``; N-zone first, then the Z-zone."""
        return self._get_one(key, hashed, None)

    def get_many(
        self, keys: Sequence[bytes], hashes: Optional[Sequence[int]] = None
    ) -> List[Optional[bytes]]:
        """Batched lookup, result- and stats-identical to a :meth:`get` loop.

        Each key runs the exact per-key control flow of :meth:`get` —
        N-zone probe first, promotion, housekeeping, all in caller
        order — but N-zone misses share one Z-zone :class:`ReadBatch`, so
        a block whose container serves several keys of the batch is
        physically decompressed and CRC-verified once
        (``container_decodes_saved`` counts the skipped decodes).  Only
        ``get_many_batches``/``batched_keys`` distinguish the stats from
        the equivalent sequential loop.
        """
        self.stats.get_many_batches += 1
        self.stats.batched_keys += len(keys)
        batch = self.zzone.read_batch()
        if hashes is None:
            hashes = [None] * len(keys)
        return [
            self._get_one(key, hashed, batch) for key, hashed in zip(keys, hashes)
        ]

    def _get_one(self, key: bytes, hashed: Optional[int], batch) -> Optional[bytes]:
        """Shared GET body; ``batch`` is a Z-zone ReadBatch or None."""
        self._housekeeping()
        self.stats.gets += 1
        value = self.nzone.get(key, hashed)
        if value is not None:
            self.stats.get_hits_nzone += 1
            self._record_service(nzone=True)
            return value
        if hashed is None:
            hashed = hash_key(key)
        if batch is None:
            result = self.zzone.get(key, hashed)
        else:
            result = self.zzone.get_batched(key, hashed, batch)
        if result is None:
            self.stats.get_misses += 1
            # Filter-identified misses are cheap and count for neither
            # zone (§3.3.1); a false positive did cost a decompression.
            return None
        zvalue, reuse_time = result
        self.stats.get_hits_zzone += 1
        self._record_service(nzone=False)
        if self._should_promote(reuse_time):
            self._promote(key, hashed, zvalue)
        return zvalue

    def set(
        self, key: bytes, value: bytes, flags: int = 0, hashed: Optional[int] = None
    ) -> None:
        """Insert or update ``key``; always admitted by the N-zone.

        ``flags`` is opaque client metadata the cache itself does not
        store (the server's store keeps it beside the cache) — it is
        accepted here only so the write-through journal records it for
        recovery.
        """
        self._housekeeping()
        self.stats.sets += 1
        self._record_service(nzone=True)
        if hashed is None:
            hashed = hash_key(key)
        # Postpone removal of a stale Z-zone version (§3.3.2): if the item
        # is evicted before the deadline the removal merges with the write.
        self._postpone_removal(key, hashed)
        self._set_into_nzone(key, value)
        # Journal only after the in-memory write succeeded: a rolled-back
        # SET was never acknowledged and must not resurrect at recovery.
        if self.journal is not None:
            self.journal.append_set(key, value, flags)

    def delete(self, key: bytes, hashed: Optional[int] = None) -> bool:
        """Remove ``key`` from both zones (§3)."""
        self._housekeeping()
        self.stats.deletes += 1
        if hashed is None:
            hashed = hash_key(key)
        in_n = self.nzone.delete(key, hashed)
        was_expensive = self.zzone.maybe_contains(key, hashed)
        in_z = self.zzone.delete(key, hashed)
        if in_n or was_expensive:
            self._record_service(nzone=not was_expensive)
        # Journal every acknowledged delete, found or not: the key may
        # live on in an earlier journal segment or checkpoint (e.g. it
        # was evicted here), and replay must not resurrect it.
        if self.journal is not None:
            self.journal.append_delete(key)
        return in_n or in_z

    def attach_journal(self, journal) -> None:
        """Write-through durability: journal every acknowledged mutation.

        Attach *after* any snapshot/journal recovery has finished, so
        replayed records are not re-journaled.  Detach with ``None``.
        """
        self.journal = journal

    def __contains__(self, key: bytes) -> bool:
        """Residency test without recency side effects (filters only for Z)."""
        return key in self.nzone or self.zzone.maybe_contains(key)

    def routes_to_zzone(self, key: bytes) -> bool:
        """Would a GET for ``key`` fall through to the Z-zone path?

        A Content-Filter pre-check with no recency or stats side effects:
        true when the key is absent from the N-zone, so serving it means
        Z-zone work (a decompression on a hit, a filter probe on a miss).
        The serving layer's load shedder uses this to drop expensive
        Z-zone-destined work first and keep the cheap N-zone path alive.
        """
        return key not in self.nzone and self.zzone.maybe_contains(key)

    @property
    def item_count(self) -> int:
        return self.nzone.item_count + self.zzone.item_count

    @property
    def used_bytes(self) -> int:
        return self.nzone.used_bytes + self.zzone.used_bytes

    @property
    def capacity(self) -> int:
        return self.config.total_capacity

    def memory_usage(self) -> Dict[str, Dict[str, int]]:
        """Per-zone byte breakdowns."""
        return {
            "nzone": self.nzone.memory_usage(),
            "zzone": self.zzone.memory_usage(),
        }

    def bind_metrics(self, registry, prefix: str = "cache") -> None:
        """Mount this cache's counters into a metrics registry.

        Every ``ZExpanderStats``/``ZZoneStats`` field (N/Z hits, sweeps,
        quarantines, adaptive steps, marker probes, ...) becomes a
        snapshot-time view — the request path keeps its plain attribute
        increments, so binding costs nothing per operation.
        """
        for suffix, reader, help in additive_views(self):
            registry.view(f"{prefix}_{suffix}", partial(reader, self), help)
        # Not in the additive list: a re-use-time threshold is each
        # instance's own measurement of its own N-zone, and the sum (or
        # mean) of four shards' thresholds is nobody's benchmark.
        registry.view(
            f"{prefix}_locality_benchmark_seconds",
            lambda: self.benchmark.value or 0.0,
            "marker-measured re-use-time benchmark (0 until first sample)",
        )

    # -- internals -------------------------------------------------------------

    def _record_service(self, nzone: bool) -> None:
        if nzone:
            self.stats.serviced_nzone += 1
            if self.allocator is not None:
                self.allocator.record_nzone()
        else:
            self.stats.serviced_zzone += 1
            if self.allocator is not None:
                self.allocator.record_zzone()

    def _should_promote(self, reuse_time: Optional[float]) -> bool:
        policy = self.config.promotion_policy
        if policy == "always":
            return True
        if policy == "never":
            return False
        if reuse_time is None:
            # First recorded access: record-only, never move (§3.3.2).
            return False
        benchmark = self.benchmark.value
        if benchmark is None:
            # No marker data yet: any observed re-use is treated as hot.
            return True
        if reuse_time < benchmark:
            return True
        self.stats.promotions_declined += 1
        return False

    def _postpone_removal(self, key: bytes, hashed: int) -> None:
        """Leave the Z-zone's copy of ``key`` (if its Content Filter admits
        one) to a later rebuild, no sooner than the locality benchmark."""
        delay = self.benchmark.value or 0.0
        if self.zzone.schedule_removal(key, hashed, self.clock.now() + delay):
            self.stats.postponed_removals += 1

    def _promote(self, key: bytes, hashed: int, value: bytes) -> None:
        if self.config.append_region_bytes > 0:
            # A write-combining zone never rebuilds a block inside a GET:
            # the N-zone shadows the promoted copy exactly as it shadows a
            # SET's stale version, and the removal rides the next rebuild
            # of its block.
            self._postpone_removal(key, hashed)
        else:
            self.zzone.delete(key, hashed)
        self.stats.promotions += 1
        self._set_into_nzone(key, value)

    def _set_into_nzone(self, key: bytes, value: bytes) -> None:
        # ``set(key, value)`` is the N-zone seam the ledger's traced twin
        # wraps with a two-argument proxy (``benchmarks/ledger/traced.py``),
        # so the hash cannot ride along here: a hashed index computes its
        # own.
        evicted = self.nzone.set(key, value)
        self._absorb_evictions(evicted)

    def _absorb_evictions(self, evicted: List[EvictedItem]) -> None:
        now = self.clock.now()
        for item in evicted:
            if is_marker_key(item.key):
                sample = self.benchmark.observe_eviction(item.key, now)
                if sample is not None:
                    self.stats.marker_samples += 1
                continue
            self.stats.demotions += 1
            self._record_service(nzone=False)
            hashed = item.hashed
            if hashed is None:
                hashed = hash_key(item.key)
            try:
                self.zzone.put(item.key, item.value, hashed)
            except ItemTooLargeError:
                # Larger than the whole Z-zone: drop it, as any cache must
                # — and the older Z-zone copy the N-zone was shadowing
                # with it, or the next GET would serve that.
                if self.zzone.maybe_contains(item.key, hashed):
                    self.zzone.delete(item.key, hashed)

    def _housekeeping(self) -> None:
        """Per-request upkeep, structured as cheap inline guards.

        This runs before every GET/SET/DELETE, so each subsystem is
        gated by the least work that can prove it idle: markers by a
        float comparison, adaptation by the allocator's presence.  The
        slow branches live in their own methods.
        """
        now = self.clock.now()
        last = self._last_marker_time
        if last is None:
            # Open the first interval without issuing: a marker written
            # into a still-cold N-zone would measure fill time, not
            # locality strength.
            self._last_marker_time = now
        elif now - last >= self._marker_interval:
            self._issue_marker(now)
        if self.allocator is not None:
            self._maybe_adapt(now)

    def _issue_marker(self, now: float) -> None:
        self._last_marker_time = now
        marker_key = self.benchmark.mint(now)
        self.stats.marker_sets += 1
        # Markers go straight to the N-zone; they are not client requests
        # and never count toward service fractions.
        self._absorb_evictions(self.nzone.set(marker_key, MARKER_VALUE))

    def _maybe_adapt(self, now: float) -> None:
        if self.allocator is None:
            return
        if not self.allocator.maybe_adjust(now):
            return
        self.stats.allocation_adjustments += 1
        self._apply_targets()

    def _apply_targets(self) -> None:
        """Resize both zones toward the allocator's targets.

        Shrinking the N-zone spills its coldest items into the Z-zone (the
        paper's background mover); shrinking the Z-zone evicts.  The Z-zone
        is resized first when it must shrink so the cache never exceeds its
        total budget mid-transition.
        """
        n_target = self.allocator.nzone_target
        z_target = self.allocator.zzone_target
        if z_target < self.zzone.capacity:
            self.zzone.resize(z_target)
            self._absorb_evictions(self.nzone.resize(n_target))
        else:
            self._absorb_evictions(self.nzone.resize(n_target))
            self.zzone.resize(z_target)

    def check_invariants(self) -> None:
        self.nzone.check_invariants()
        self.zzone.check_invariants()
