"""The server's store: the cache plus each key's flags and CAS version.

The zExpander core stores ``key -> value`` bytes and nothing else — it
has no notion of memcached ``flags`` or CAS versions, and teaching every
zone/block structure about them would bloat the compressed Z-zone format
for a concern that is purely the serving layer's.  So the server wraps
its cache in one :class:`ItemMetaStore`, which holds the cache and a
``key -> (flags, cas)`` map, where ``cas`` is a server-wide monotonic
version counter bumped on every successful store (matching real
memcached, whose CAS values are a global counter that restarts from
scratch on reboot — CAS tokens are deliberately *not* persisted).

Everything that writes into a served cache goes through :meth:`set` and
:meth:`delete` — client SET/CAS/DELETE, recovery, image loads, the
replica's stream and resyncs, promotion catch-up — and everything that
reads its contents out (images, resync sweeps) walks :meth:`walk`.  The
library's appliers and image writers take the store wherever they take
a cache, and never know the map exists.  Only the server's reads (GET,
and CAS's version check) use :attr:`entries` directly: a hit costs one
dict probe, not a call, and a miss drops its entry there.

Staleness discipline: the cache evicts items without telling the store,
so an entry can outlive its item.  That is harmless for correctness — a
GET miss never consults the map for a reply, and the server drops the
entry when it observes the miss — but it is a memory liability under
churn, so :meth:`prune` walks off entries whose keys are no longer
resident once the map grows past twice the cache's live item count.
Until the drop or a prune runs, a re-stored key simply overwrites its
stale entry.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.core.snapshot import iter_cache_items

#: ``(flags, cas)`` of a key the store has never versioned.  A zero CAS
#: is unobtainable from a store (the counter starts at 1), so
#: ``cas == 0`` reliably means "no live version".
DEFAULT_META: Tuple[int, int] = (0, 0)


class ItemMetaStore:
    """A cache with ``key -> (flags, cas)`` beside it."""

    def __init__(self, cache) -> None:
        self.cache = cache
        self.entries: Dict[bytes, Tuple[int, int]] = {}
        self._next_cas = 0

    def __len__(self) -> int:
        return len(self.entries)

    # -- the one write path -----------------------------------------------------

    def set(
        self,
        key: bytes,
        value: bytes,
        ttl: Optional[float] = None,
        flags: int = 0,
    ) -> int:
        """Store ``value`` with its client ``flags``; returns its new CAS.

        A :class:`~repro.common.errors.CacheError` from the cache
        propagates with the map untouched.
        """
        self.cache.set(key, value, ttl=ttl, flags=flags)
        return self.version(key, flags)

    def delete(self, key: bytes) -> bool:
        """Remove ``key`` from the cache and the map; True if it was found."""
        found = self.cache.delete(key)
        self.entries.pop(key, None)
        return found

    def version(self, key: bytes, flags: int) -> int:
        """Mint ``key``'s next CAS version (a resident item reached the
        cache without the store, e.g. through an image loaded before the
        server existed)."""
        self._next_cas += 1
        self.entries[key] = (flags, self._next_cas)
        return self._next_cas

    # -- reading the contents out -------------------------------------------------

    def walk(self) -> Iterator[Tuple[bytes, bytes, int]]:
        """Each resident key once, with the value a GET returns and its flags."""
        entries = self.entries
        for key, value in iter_cache_items(self.cache):
            yield key, value, entries.get(key, DEFAULT_META)[0]

    # -- hygiene ----------------------------------------------------------------

    def prune(self, limit: int = 4096) -> int:
        """Drop up to ``limit`` entries whose key the cache no longer holds,
        once the map has outgrown twice the cache's population; returns
        the number dropped."""
        cache = self.cache
        if len(self.entries) <= 2 * cache.item_count + 64:
            return 0
        stale = []
        for key in self.entries:
            if key not in cache:
                stale.append(key)
                if len(stale) >= limit:
                    break
        for key in stale:
            del self.entries[key]
        return len(stale)

    @property
    def memory_bytes(self) -> int:
        """Rough accounting: dict slot + tuple of two ints per entry."""
        return len(self.entries) * 96
