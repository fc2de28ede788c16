"""Sharded zExpander: N independent instances behind one interface.

Production memcached deployments spread a key space over many servers;
the paper measures one server.  :class:`ShardedZExpander` models the
fleet-level view — consistent placement by key hash, per-shard zExpander
instances, aggregated statistics — so experiments can ask fleet questions
(e.g. how per-shard adaptation behaves under skew, where the hottest
shard's miss ratio sits relative to the fleet's).

This is an extension beyond the paper (its future work discusses porting
more KV caches into zExpander; sharding is the deployment-shaped
counterpart).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError
from repro.common.hashing import hash_key
from repro.core.config import ZExpanderConfig
from repro.core.zexpander import ZExpander, additive_views


class ShardedZExpander:
    """A fixed pool of zExpander shards addressed by key hash.

    The total budget is divided evenly; each shard runs the full policy
    stack (markers, promotion, adaptation) independently, exactly as
    independent servers would.
    """

    def __init__(
        self,
        config: ZExpanderConfig,
        num_shards: int,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        per_shard = config.total_capacity // num_shards
        if per_shard <= 0:
            raise ConfigurationError("total_capacity too small for the shard count")
        self.clock = clock if clock is not None else VirtualClock()
        self.num_shards = num_shards
        self.shards: List[ZExpander] = []
        for shard_index in range(num_shards):
            shard_config = ZExpanderConfig(**{**vars(config)})
            shard_config.total_capacity = per_shard
            shard_config.seed = config.seed + shard_index
            self.shards.append(ZExpander(shard_config, clock=self.clock))

    # -- placement -------------------------------------------------------------

    def shard_for(self, key: bytes) -> ZExpander:
        """The shard responsible for ``key`` (consistent by key hash).

        Uses the *low* bits of the placement hash: the Z-zone trie
        consumes the high bits, so shard choice and block placement stay
        statistically independent.
        """
        return self.shards[hash_key(key) % self.num_shards]

    # -- KV interface ---------------------------------------------------------
    #
    # Each call hashes its key once: the hash picks the shard and rides
    # down to the shard's N-zone index and Z-zone.

    def get(self, key: bytes) -> Optional[bytes]:
        hashed = hash_key(key)
        return self.shards[hashed % self.num_shards].get(key, hashed)

    def get_many(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        """Batched lookup: one per-shard batch, results in caller order.

        Keys are grouped by owning shard (preserving each shard's
        relative caller order, which per-key accounting depends on) and
        each group rides that shard's native
        :meth:`~repro.core.zexpander.ZExpander.get_many`; single-key
        groups still count as a batch on their shard, matching what a
        fleet of independent servers would report.
        """
        hashes = [hash_key(key) for key in keys]
        by_shard: Dict[int, List[int]] = {}
        for position, hashed in enumerate(hashes):
            by_shard.setdefault(hashed % self.num_shards, []).append(position)
        results: List[Optional[bytes]] = [None] * len(keys)
        for shard_index, positions in by_shard.items():
            shard_values = self.shards[shard_index].get_many(
                [keys[position] for position in positions],
                [hashes[position] for position in positions],
            )
            for position, value in zip(positions, shard_values):
                results[position] = value
        return results

    def set(self, key: bytes, value: bytes, flags: int = 0) -> None:
        hashed = hash_key(key)
        self.shards[hashed % self.num_shards].set(key, value, flags, hashed)

    def delete(self, key: bytes) -> bool:
        hashed = hash_key(key)
        return self.shards[hashed % self.num_shards].delete(key, hashed)

    def __contains__(self, key: bytes) -> bool:
        return key in self.shard_for(key)

    def routes_to_zzone(self, key: bytes) -> bool:
        """Content-Filter pre-check on the owning shard (no side effects)."""
        return self.shard_for(key).routes_to_zzone(key)

    def attach_journal(self, journal) -> None:
        """Write-through durability on every shard (one shared writer).

        The serving layer is single-threaded (asyncio), so one appender
        behind all shards needs no locking; records interleave in
        acknowledgement order, which is exactly replay order.
        """
        for shard in self.shards:
            shard.attach_journal(journal)

    # -- aggregation -------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return sum(shard.capacity for shard in self.shards)

    @property
    def used_bytes(self) -> int:
        return sum(shard.used_bytes for shard in self.shards)

    @property
    def item_count(self) -> int:
        return sum(shard.item_count for shard in self.shards)

    def bind_metrics(self, registry, prefix: str = "cache") -> None:
        """Mount fleet-wide totals into a metrics registry.

        Every additive view a single instance binds, read as its sum
        over the shards at snapshot time (per-shard hot paths stay
        untouched), plus the two shard-shape gauges.  The locality
        benchmark is not among them: see ``ZExpander.bind_metrics``.
        """
        shards = self.shards
        for suffix, reader, help in additive_views(shards[0]):
            registry.view(
                f"{prefix}_{suffix}",
                lambda reader=reader: sum(map(reader, shards)),
                help,
            )
        registry.view(
            f"{prefix}_shards", lambda: self.num_shards, "shard count"
        )
        registry.view(
            f"{prefix}_shard_imbalance",
            self.imbalance,
            "max-over-mean item count across shards",
        )

    def imbalance(self) -> float:
        """Max-over-mean item count across shards (1.0 = perfectly even)."""
        counts = [shard.item_count for shard in self.shards]
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 1.0
        return max(counts) / mean

    def check_invariants(self) -> None:
        for shard in self.shards:
            shard.check_invariants()
