"""The server's store: the cache plus the flags, CAS and deadline of the
keys that need them.

The zExpander core stores ``key -> value`` bytes and nothing else — it
has no notion of memcached ``flags``, CAS versions or expiry times, and
teaching every zone/block structure about them would bloat the
compressed Z-zone format for a concern that is purely the serving
layer's.  So the server wraps its cache in one :class:`ItemMetaStore`,
which holds the cache and a sparse ``key -> (flags, cas, deadline)`` map.

Sparse: a key has an entry only while it has something to record — flags
other than 0, a deadline (the time on :attr:`clock` at which its TTL
runs out), or a CAS token.  A plain SET (flags 0, no exptime) removes
any entry the key had, so a resident key with default metadata costs the
store nothing, and the default ``(0, 0, None)`` is read for it.

CAS: a token is minted on the first :meth:`gets` of a version, from one
server-wide counter, and lasts until the next write of that key, which
drops it; a later ``gets`` mints a fresh, larger one.  So tokens are
unique, change on every store and are never handed out for a version no
client asked about.  :meth:`cas` is the one compare.  As in memcached,
tokens are not persisted: they restart from scratch on every boot.

Everything that writes into a served cache goes through :meth:`set` and
:meth:`delete` — client SET/CAS/DELETE, recovery, image loads, the
replica's stream and resyncs, promotion catch-up — and everything that
reads its contents out (images, resync sweeps) walks :meth:`walk`.  The
library's appliers and image writers take the store wherever they take
a cache, and never know the map exists.  A plain GET reads
:attr:`entries` directly: a hit costs one dict probe, not a call, and a
miss drops its entry there.

Expiry: a deadline is also pushed on one heap of due times.  The server
calls :meth:`expire` once per dispatched command while that heap is
non-empty (a TTL-free workload pays one truthiness test): it deletes up
to :data:`PURGE_LIMIT` keys that have come due, then any of the
command's read keys that have.  An expiry is a :meth:`delete`, so it is
journaled like one and reaches recovery and every replica; the records
themselves carry no TTL.  :meth:`walk` leaves out a key whose deadline
has passed, so no image holds an item the server has stopped serving.

Staleness discipline: the cache evicts items without telling the store,
so an entry can outlive its item.  That is harmless for correctness — a
GET miss never consults the map for a reply, and the server drops the
entry when it observes the miss — but it is a memory liability under
churn, so :meth:`prune` walks off entries whose keys are no longer
resident once the map grows past twice the cache's live item count.
Until the drop or a prune runs, a re-stored key simply overwrites or
drops its stale entry.  A heap slot whose entry was overwritten, deleted
or pruned is skipped when it comes due.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.clock import VirtualClock
from repro.core.snapshot import iter_cache_items

#: ``(flags, cas, deadline)`` of a key without an entry.  A zero CAS is
#: never minted (the counter starts at 1), so ``cas == 0`` reliably means
#: "no token for this version".
DEFAULT_META: Tuple[int, int, Optional[float]] = (0, 0, None)

#: Due keys one :meth:`ItemMetaStore.expire` call deletes at most.
PURGE_LIMIT = 64

#: Stale entries one :meth:`ItemMetaStore.prune` call drops at most.
PRUNE_LIMIT = 4096


class ItemMetaStore:
    """A cache with a sparse ``key -> (flags, cas, deadline)`` beside it."""

    def __init__(self, cache) -> None:
        self.cache = cache
        #: The one clock deadlines are read on and the server ticks: the
        #: cache's own when it has one.
        self.clock = getattr(cache, "clock", None) or VirtualClock()
        #: Only keys with flags, a deadline or a token; see the module doc.
        self.entries: Dict[bytes, Tuple[int, int, Optional[float]]] = {}
        #: ``(deadline, key)`` per deadline ever set; stale slots included.
        self.due: List[Tuple[float, bytes]] = []
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
    ) -> None:
        """Store ``value`` with its client ``flags``, for ``ttl`` seconds
        (None: until evicted or deleted).

        Every SET carries its own exptime, as in memcached: an overwrite
        without ``ttl`` clears the old deadline.  Every write drops the
        key's CAS token.  A :class:`~repro.common.errors.CacheError` from
        the cache propagates with the map untouched.
        """
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        self.cache.set(key, value, flags=flags)
        if ttl is not None:
            deadline = self.clock.now() + ttl
            heapq.heappush(self.due, (deadline, key))
            self.entries[key] = (flags, 0, deadline)
        elif flags:
            self.entries[key] = (flags, 0, None)
        else:
            self.entries.pop(key, None)

    def delete(self, key: bytes) -> bool:
        """Remove ``key`` from the cache and the map; True if it was found."""
        found = self.cache.delete(key)
        self.entries.pop(key, None)
        return found

    # -- CAS ------------------------------------------------------------------------

    def gets(self, key: bytes) -> Tuple[int, int]:
        """``(flags, cas)`` of resident ``key`` for a ``gets`` reply,
        minting the token if this version has none yet."""
        flags, cas, deadline = self.entries.get(key, DEFAULT_META)
        if cas == 0:
            self._next_cas += 1
            cas = self._next_cas
            self.entries[key] = (flags, cas, deadline)
        return flags, cas

    def cas(self, key: bytes, token: int) -> Optional[bool]:
        """The compare of a ``cas`` command: None when ``key`` is not
        resident (NOT_FOUND), False when ``token`` is not the one
        :meth:`gets` handed out for the current version (EXISTS), True
        when it is and the caller may store."""
        if self.cache.get(key) is None:
            self.entries.pop(key, None)
            return None
        cas = self.entries.get(key, DEFAULT_META)[1]
        return cas != 0 and cas == token

    # -- expiry -------------------------------------------------------------------

    def expire(self, keys: Iterable[bytes] = ()) -> int:
        """Delete up to :data:`PURGE_LIMIT` keys that have come due, then
        any of ``keys`` that has; returns how many were deleted."""
        now = self.clock.now()
        due, entries = self.due, self.entries
        expired = 0
        while due and due[0][0] <= now and expired < PURGE_LIMIT:
            deadline, key = heapq.heappop(due)
            entry = entries.get(key)
            if entry is not None and entry[2] == deadline:
                self.delete(key)
                expired += 1
        for key in keys:
            deadline = entries.get(key, DEFAULT_META)[2]
            if deadline is not None and deadline <= now:
                self.delete(key)
                expired += 1
        return expired

    # -- reading the contents out -------------------------------------------------

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Every resident key once with the value a GET returns, expired
        or not (what a sweep over the cache must reach)."""
        return iter_cache_items(self.cache)

    def walk(self) -> Iterator[Tuple[bytes, bytes, int]]:
        """Each resident key once, with the value a GET returns and its
        flags, less the keys whose deadline has passed."""
        entries = self.entries
        now = self.clock.now()
        for key, value in self.items():
            flags, _cas, deadline = entries.get(key, DEFAULT_META)
            if deadline is None or deadline > now:
                yield key, value, flags

    # -- hygiene ----------------------------------------------------------------

    def prune(self) -> int:
        """Drop up to :data:`PRUNE_LIMIT` entries whose key the cache no
        longer holds, once the map has outgrown twice the cache's
        population; returns the number dropped."""
        cache = self.cache
        if len(self.entries) <= 2 * cache.item_count + 64:
            return 0
        stale = []
        for key in self.entries:
            if key not in cache:
                stale.append(key)
                if len(stale) >= PRUNE_LIMIT:
                    break
        for key in stale:
            del self.entries[key]
        return len(stale)

    @property
    def memory_bytes(self) -> int:
        """Rough accounting: dict slot + tuple of three per entry, and a
        list slot per heap entry (stale ones until they come due)."""
        return len(self.entries) * 104 + len(self.due) * 8
