"""The Z-zone manager (§3.1–3.3).

Owns the block trie, the circular sweep list, the deferred-removal queue,
and the byte budget.  There is one way out of a block and one way in:
every GET — single or one key of a batch — is :meth:`ZZone._resolve`
(trie, Content Filter, append region, large ref, container scan), and
every small-item write is :meth:`ZZone._merge` — "writing a new item into
a block always leads to its reconstruction" — which the optional append
region only postpones.  Every reconstruction is charged to the
compression/decompression counters that the performance model and the
adaptive controller consume.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.common.clock import VirtualClock
from repro.common.errors import CacheError, CodecError, ItemTooLargeError
from repro.common.hashing import hash_key
from repro.common.rng import make_rng
from repro.compression.base import Compressor
from repro.compression.lz4 import LZ4Compressor
from repro.compression.null import NullCompressor
from repro.compression.zlibc import ZlibCompressor
from repro.zzone.block import (
    NO_LARGE_REFS,
    Block,
    Entry,
    LargeItem,
    container_entries,
    decode_items,
    item_entry,
)
from repro.zzone.trie import BlockTrie

DEFAULT_BLOCK_CAPACITY = 2048

#: Consecutive codec failures tolerated before falling back to the next
#: codec in the degradation chain (lz4 -> deflate -> null).
CODEC_FAULT_TOLERANCE = 3

#: Overage fraction beyond which :meth:`ZZone._evict_to_fit` stops
#: respecting the Access Filter and force-sweeps (emergency pressure,
#: e.g. a large externally injected capacity squeeze).  Normal operation
#: never exceeds this: puts evict incrementally, and although adaptive
#: resizing's ~3 %-of-total steps can be a sizeable fraction of a
#: near-empty Z-zone's own budget, they stay safely below 50 % (a 40 %
#: injected squeeze on a full zone overshoots ~67 %).
EMERGENCY_OVERAGE = 0.5


@dataclass
class ZZoneStats:
    """Operation counters; the cost model prices these."""

    gets: int = 0
    hits: int = 0
    misses: int = 0
    #: GETs/DELETEs answered "absent" by a Content Filter alone.
    filter_skips: int = 0
    #: Filter said maybe but the block scan came up empty.
    false_positives: int = 0
    decompressions: int = 0
    compressions: int = 0
    puts: int = 0
    deletes: int = 0
    evicted_items: int = 0
    evicted_bytes: int = 0
    splits: int = 0
    sweep_visits: int = 0
    pending_removals_executed: int = 0
    pending_removals_merged: int = 0
    #: Integrity taxonomy: payload failed its CRC before decompression.
    checksum_failures: int = 0
    #: Codec raised, or returned bytes of the wrong shape.
    codec_failures: int = 0
    #: Times the zone switched to the next codec in the fallback chain.
    codec_fallbacks: int = 0
    #: Damaged blocks dropped whole; their items became counted misses.
    quarantined_blocks: int = 0
    quarantined_items: int = 0
    quarantined_bytes: int = 0
    #: Forced full-pressure sweeps triggered by severe capacity overage.
    emergency_sweeps: int = 0
    #: Write-combining append region: puts absorbed by a staging buffer
    #: (no compression), and region-full merges into the container.
    staged_puts: int = 0
    staging_flushes: int = 0
    #: Always 0: the decoded-container LRU it counted is gone (the N-zone
    #: is the one uncompressed tier).  Kept only because the frozen
    #: ledger's ``benchmarks/ledger/traced.py`` reads it by name in
    #: ``ZZONE_COUNTERS``; drop it when that ledger is re-frozen.
    container_cache_hits: int = 0
    #: Staged bytes failed their running CRC; the block was quarantined.
    staged_checksum_failures: int = 0
    #: Batched GETs: physical decompressions skipped because an earlier
    #: key in the same batch already decoded the block's container.  The
    #: priced ``decompressions`` counter still charges these as-if
    #: sequential (stats parity); this counter records the real savings.
    container_decodes_saved: int = 0


#: The two :class:`ZZoneStats` families reported under names of their
#: own (``integrity_<field>`` / ``fastpath_<field>`` on the stats wire,
#: the chaos reports).  Stated here once, beside the fields.
INTEGRITY_FIELDS = (
    "checksum_failures",
    "staged_checksum_failures",
    "codec_failures",
    "codec_fallbacks",
    "quarantined_blocks",
    "quarantined_items",
    "quarantined_bytes",
    "emergency_sweeps",
)
FASTPATH_FIELDS = (
    "staged_puts",
    "staging_flushes",
    "container_cache_hits",
    "container_decodes_saved",
)


class ReadBatch:
    """Per-batch memo shared by the :meth:`ZZone.get_batched` calls of one
    batched read.

    Holds work that may legally be shared across the keys of one batch
    without changing any observable state or counter relative to issuing
    the same GETs one by one:

    * decoded containers keyed by block generation (one physical
      decompression serves every key in the block; the priced
      ``decompressions`` counter is still charged per key),
    * CRC verification results (a payload or an append region is verified
      once per batch — re-verifying identical bytes is pure waste),
    * the trie-walk memo (same last-level prefix -> same leaf, with the
      probe telemetry replayed so ``average_probes()`` stays exact).

    Generations are process-unique and minted fresh on every rebuild, so
    any mid-batch mutation (quarantine, promotion-driven rebuild)
    invalidates the relevant memo entries by construction; the trie memo
    is guarded by :attr:`BlockTrie.version`.
    """

    __slots__ = ("containers", "verified", "leaf_cache", "trie_version")

    def __init__(self) -> None:
        self.containers: Dict[int, bytes] = {}
        #: Tokens of CRC-verified bytes: a generation for a compressed
        #: payload, ``(generation, buffer length)`` for an append region.
        self.verified: set = set()
        self.leaf_cache: Dict[int, tuple] = {}
        self.trie_version = -1


class ZZone:
    """Compressed cold partition with sweep replacement."""

    def __init__(
        self,
        capacity: int,
        compressor: Optional[Compressor] = None,
        block_capacity: int = DEFAULT_BLOCK_CAPACITY,
        clock: Optional[VirtualClock] = None,
        seed: int = 0,
        use_content_filter: bool = True,
        use_access_filter: bool = True,
        faults=None,
        append_region_bytes: int = 0,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if block_capacity < 64:
            raise ValueError(f"block_capacity must be >= 64, got {block_capacity}")
        if append_region_bytes < 0:
            raise ValueError(
                f"append_region_bytes must be >= 0, got {append_region_bytes}"
            )
        self.capacity = capacity
        self.block_capacity = block_capacity
        #: Ablation switches: without the Content Filter every absent-key
        #: GET/DELETE decompresses its block (Figure 13's "no filter"
        #: baseline); without the Access Filter the sweep picks victims
        #: blindly.
        self.use_content_filter = use_content_filter
        self.use_access_filter = use_access_filter
        #: Optional fault injector (duck-typed ``FaultInjector``): consulted
        #: on every keyed access when present, a single ``is None`` check
        #: when absent.
        self._faults = faults
        self.compressor = compressor if compressor is not None else ZlibCompressor()
        self.clock = clock if clock is not None else VirtualClock()
        self.stats = ZZoneStats()
        self._rng = make_rng(seed, "zzone-sweep")
        self._trie = BlockTrie()
        self._used = 0
        self._item_count = 0
        self._hand: Optional[Block] = None
        #: Graceful degradation: codecs to fall back to after repeated
        #: codec faults.  The chain always ends in a plain NullCompressor
        #: (which cannot fail), so a reconstruction can always complete.
        self._fallbacks = self._fallback_chain()
        self._codec_strikes = 0
        #: key -> (hashed_key, earliest execution time, schedule order);
        #: §3.3.2's postponed removals of copies the N-zone shadows — a
        #: stale version after a SET, a promoted item's original.
        self._pending_removals: Dict[bytes, Tuple[int, float, int]] = {}
        #: Min-heap of every (deadline, key) scheduled, so finding the due
        #: removals costs O(due), not a walk of the whole dict.  An entry
        #: counts only while the dict still holds that deadline for the
        #: key; the rest are skipped when they surface.
        self._removal_deadlines: List[Tuple[float, bytes]] = []
        self._removal_order = itertools.count()
        #: Write-combining append region.  A bare zone defaults it off
        #: (the paper's write path); ``ZExpanderConfig`` sizes it for a
        #: cache.
        self.append_region_bytes = append_region_bytes
        root = self._build_block([])
        self._trie.insert_root(root)
        self._link_initial(root)
        self._used = root.memory_bytes + self._trie.memory_bytes

    # -- circular sweep list --------------------------------------------------

    def _link_initial(self, block: Block) -> None:
        block.next_block = block
        block.prev_block = block
        self._hand = block

    def _splice_remove(self, block: Block) -> None:
        """Unlink ``block`` from the ring (it must not be the only node)."""
        if block.next_block is block:
            raise ValueError("cannot remove the last ring node")
        block.prev_block.next_block = block.next_block
        block.next_block.prev_block = block.prev_block
        if self._hand is block:
            self._hand = block.next_block

    def _splice_replace(self, old: Block, replacements: List[Block]) -> None:
        """Replace ``old`` in the ring with one or two blocks."""
        first, last = replacements[0], replacements[-1]
        if old.next_block is old:
            # Single-node ring.
            prev_node, next_node = last, first
        else:
            prev_node, next_node = old.prev_block, old.next_block
        prev_node.next_block = first
        first.prev_block = prev_node
        last.next_block = next_node
        next_node.prev_block = last
        if len(replacements) == 2:
            first.next_block = last
            last.prev_block = first
        if self._hand is old:
            self._hand = first

    # -- byte accounting -------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def item_count(self) -> int:
        return self._item_count

    @property
    def block_count(self) -> int:
        return self._trie.block_count

    def resize(self, capacity: int) -> None:
        """Change the byte budget; shrinking evicts immediately."""
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._evict_to_fit()

    def _recharge(self, old_bytes: int, new_bytes: int) -> None:
        self._used += new_bytes - old_bytes

    # -- integrity and degradation ---------------------------------------------

    def _fallback_chain(self) -> List[Compressor]:
        """Codecs to degrade to: lz4 -> deflate -> null, deflate -> null.

        A fault-wrapped codec exposes its real codec as ``.inner``; the
        fallbacks themselves are plain codecs (degrading means leaving the
        faulty codec behind), so the chain always terminates in a codec
        that cannot raise.
        """
        inner = getattr(self.compressor, "inner", self.compressor)
        chain: List[Compressor] = []
        if isinstance(inner, LZ4Compressor):
            chain.append(ZlibCompressor())
        if not (type(inner) is NullCompressor and inner is self.compressor):
            chain.append(NullCompressor())
        return chain

    def _note_codec_failure(self) -> None:
        """Count a codec fault; repeated faults advance the fallback chain."""
        self.stats.codec_failures += 1
        self._codec_strikes += 1
        if self._codec_strikes >= CODEC_FAULT_TOLERANCE and self._fallbacks:
            self.compressor = self._fallbacks.pop(0)
            self.stats.codec_fallbacks += 1
            self._codec_strikes = 0

    def _with_codec(self, build):
        """Run ``build(codec)`` — one compression — degrading on codec faults."""
        for _attempt in range(4 * (len(self._fallbacks) + 1)):
            codec = self.compressor
            try:
                built = build(codec)
            except CodecError:
                self._note_codec_failure()
                continue
            self._codec_strikes = 0
            self.stats.compressions += 1
            return built
        raise CodecError("compression failed with every codec in the chain")

    def _build_block(
        self,
        entries: List[Entry],
        depth: int = 0,
        prefix: int = 0,
        large_refs: Optional[Dict[bytes, LargeItem]] = None,
    ) -> Block:
        """Build a block of ``entries`` (in canonical order) with the
        current codec, degrading on codec faults."""
        return self._with_codec(
            lambda codec: Block.from_entries(
                entries, codec, depth=depth, prefix=prefix, large_refs=large_refs
            )
        )

    @staticmethod
    def _verified(batch: Optional[ReadBatch], token, check) -> bool:
        """CRC ``check()`` of the bytes ``token`` names, once per batch."""
        if batch is None:
            return check()
        if token in batch.verified:
            return True
        if check():
            batch.verified.add(token)
            return True
        return False

    def _container_of(
        self,
        leaf: Block,
        batch: Optional[ReadBatch] = None,
        charge: bool = True,
    ) -> Optional[bytes]:
        """Checksummed decompression of ``leaf``'s container.

        Returns the container bytes, or None after quarantining the block
        when its checksum fails or its codec raises ``CodecError`` /
        returns bytes of the wrong size.  ``charge=False`` keeps the
        decompression off the priced stats (accounting-neutral
        iteration).  A ``batch`` memo only spares the physical work:
        ``decompressions`` is charged per call regardless, and
        ``container_decodes_saved`` counts the decodes the memo answered.
        """
        if charge:
            self.stats.decompressions += 1
        if not self._verified(
            batch, leaf.generation, leaf.checksum_ok
        ):
            self.stats.checksum_failures += 1
            self._quarantine(leaf)
            return None
        if batch is not None:
            memo = batch.containers.get(leaf.generation)
            if memo is not None:
                self.stats.container_decodes_saved += 1
                return memo
        codec = leaf.codec or self.compressor
        try:
            container = codec.decompress(leaf.compressed)
        except CodecError:
            self._note_codec_failure()
            self._quarantine(leaf)
            return None
        if len(container) != leaf.uncompressed_size:
            # The codec produced garbage of the wrong shape.
            self._note_codec_failure()
            self._quarantine(leaf)
            return None
        if batch is not None:
            batch.containers[leaf.generation] = container
        return container

    def _large_bytes(
        self, leaf: Block, key: bytes, large: LargeItem, charge: bool = True
    ) -> Optional[bytes]:
        """Checksummed decompression of a large item; drops it on damage."""
        if charge:
            self.stats.decompressions += 1
        if not large.checksum_ok():
            self.stats.checksum_failures += 1
            self._drop_large(leaf, key)
            return None
        codec = large.codec or self.compressor
        try:
            value = codec.decompress(large.compressed)
        except CodecError:
            self._note_codec_failure()
            self._drop_large(leaf, key)
            return None
        if len(key) + len(value) != large.uncompressed_size:
            self._note_codec_failure()
            self._drop_large(leaf, key)
            return None
        return value

    def _drop_large(self, leaf: Block, key: bytes) -> None:
        """Quarantine a single damaged large item (its block is intact)."""
        old_bytes = leaf.memory_bytes
        del leaf.large_refs[key]
        self._item_count -= 1
        self.stats.quarantined_items += 1
        self._recharge(old_bytes, leaf.memory_bytes)

    def _quarantine(self, block: Block) -> Block:
        """Drop a damaged block and rebuild its trie slot empty.

        The block's items become counted misses for whoever asks for them
        next; the replacement keeps the trie shape and the sweep ring
        intact so serving continues uninterrupted.
        """
        lost = block.item_count + block.staged_count + len(block.large_refs)
        self.stats.quarantined_blocks += 1
        self.stats.quarantined_items += lost
        self.stats.quarantined_bytes += block.memory_bytes
        self._item_count -= lost
        replacement = self._build_block([], depth=block.depth, prefix=block.prefix)
        self._trie.replace_leaf(block, replacement)
        self._splice_replace(block, [replacement])
        self._recharge(block.memory_bytes, replacement.memory_bytes)
        return replacement

    # -- core operations --------------------------------------------------------

    def get(self, key: bytes, hashed: Optional[int] = None) -> Optional[Tuple[bytes, Optional[float]]]:
        """Look up ``key``; returns (value, reuse_time) or None.

        ``reuse_time`` is the gap since the item's recorded previous access
        (None on the first recorded access) — the input to the N-zone
        promotion rule (§3.3.2).
        """
        if hashed is None:
            hashed = hash_key(key)
        return self._resolve(key, hashed, None)

    def read_batch(self) -> Optional[ReadBatch]:
        """A fresh per-batch memo, or None when batching must stand down.

        With a fault injector armed nothing may be memoised: every keyed
        access must re-verify what it reads so corruption points fire at
        their seeded positions — the chaos harnesses' byte-identical
        verdicts depend on it.
        """
        if self._faults is not None:
            return None
        return ReadBatch()

    def get_batched(
        self, key: bytes, hashed: int, batch: Optional[ReadBatch]
    ) -> Optional[Tuple[bytes, Optional[float]]]:
        """One key of a batched read; exactly :meth:`get` plus the memo."""
        return self._resolve(key, hashed, None if self._faults is not None else batch)

    def _resolve(
        self, key: bytes, hashed: int, batch: Optional[ReadBatch]
    ) -> Optional[Tuple[bytes, Optional[float]]]:
        """The one read path: trie, fault hook, block read, accounting.

        ``batch`` is a memo shared with the other keys of a batched read,
        or None to memoise nothing.  Either way every counter, LRU move
        and access record is what a key-by-key GET loop leaves behind.
        """
        stats = self.stats
        stats.gets += 1
        trie = self._trie
        if batch is None:
            leaf = trie.find_leaf(hashed)
        else:
            if batch.trie_version != trie.version:
                batch.leaf_cache.clear()
                batch.trie_version = trie.version
            leaf = trie.find_leaf_batched(hashed, batch.leaf_cache)
        value = None
        if leaf is not None:
            if self._faults is not None:
                self._faults.maybe_corrupt(leaf)
            value = self._read_leaf(leaf, key, hashed, batch)
        if value is None:
            stats.misses += 1
            return None
        reuse = leaf.record_get(hashed, self.clock.now())
        stats.hits += 1
        return value, reuse

    def _read_leaf(
        self, leaf: Block, key: bytes, hashed: int, batch: Optional[ReadBatch]
    ) -> Optional[bytes]:
        """``key``'s value in ``leaf``: Content Filter, append region,
        large ref, then container scan.  None is a miss — including a
        damaged block or large item, quarantined on the way."""
        if self.use_content_filter and not leaf.maybe_contains(hashed):
            self.stats.filter_skips += 1
            return None
        if leaf.staged_index:
            # The append region is checked before the container and before
            # large refs: a staged entry is always the newest write of its
            # key.  Its running CRC is verified first so a bit-flip in
            # staged bytes can never be served.  The buffer length rides
            # in the memo token because staged appends do not mint a new
            # generation.
            if not self._verified(
                batch,
                (leaf.generation, len(leaf.staged_buffer)),
                leaf.staged_checksum_ok,
            ):
                self.stats.staged_checksum_failures += 1
                self._quarantine(leaf)
                return None
            value = leaf.staged_lookup(key)
            if value is not None:
                return value
        large = leaf.large_refs.get(key)
        if large is not None:
            value = self._large_bytes(leaf, key, large)
            if value is not None:
                large.accessed = True
            return value
        container = self._container_of(leaf, batch)
        if container is None:
            return None
        value = leaf.scan(container, key, hashed)
        if value is None:
            # A decompression that found nothing: a filter false positive
            # when the filter is on, plain wasted work when it is off.
            self.stats.false_positives += 1
        return value

    def maybe_contains(self, key: bytes, hashed: Optional[int] = None) -> bool:
        """Content-Filter-only membership check (no decompression)."""
        if hashed is None:
            hashed = hash_key(key)
        leaf = self._trie.find_leaf(hashed)
        return leaf is not None and leaf.maybe_contains(hashed)

    def put(self, key: bytes, value: bytes, hashed: Optional[int] = None) -> None:
        """Insert or replace an item (typically an N-zone eviction)."""
        if hashed is None:
            hashed = hash_key(key)
        item_size = len(key) + len(value)
        if item_size > self.capacity:
            raise ItemTooLargeError(key, item_size, self.capacity)
        self.stats.puts += 1
        # A put of the same key supersedes any postponed removal: the
        # paper's "removal and write operations are merged into one".
        pending = self._pending_removals.pop(key, None)
        if pending is not None:
            self.stats.pending_removals_merged += 1
        leaf = self._trie.find_leaf(hashed)
        if self._faults is not None:
            self._faults.maybe_corrupt(leaf)
        try:
            if item_size > self.block_capacity // 2:
                self._put_large(leaf, key, value, hashed)
            else:
                self._put_staged(leaf, key, value, hashed)
        except CacheError:
            # Rollback path: reconstruction failed before any structure
            # was swapped in (all mutation happens after a successful
            # build), so byte accounting and the sweep list are already
            # unchanged — only the merged pending removal needs restoring.
            if pending is not None:
                self._pending_removals[key] = pending
                self.stats.pending_removals_merged -= 1
            raise
        self._evict_to_fit()

    def delete(self, key: bytes, hashed: Optional[int] = None) -> bool:
        """Remove ``key`` if present; filter-negative deletes are free."""
        if hashed is None:
            hashed = hash_key(key)
        self.stats.deletes += 1
        leaf = self._trie.find_leaf(hashed)
        if leaf is None:
            return False
        if self._faults is not None:
            self._faults.maybe_corrupt(leaf)
        if self.use_content_filter and not leaf.maybe_contains(hashed):
            self.stats.filter_skips += 1
            return False
        self._pending_removals.pop(key, None)
        return self._remove_from_block(leaf, key, hashed)

    def schedule_removal(self, key: bytes, hashed: int, not_before: float) -> bool:
        """Postpone removing a stale version until ``not_before`` (§3.3.2).

        Returns whether the Content Filter admits a copy may exist, i.e.
        whether anything was scheduled.
        """
        if not self.maybe_contains(key, hashed):
            return False
        pending = self._pending_removals
        previous = pending.get(key)
        order = next(self._removal_order) if previous is None else previous[2]
        pending[key] = (hashed, not_before, order)
        deadlines = self._removal_deadlines
        heapq.heappush(deadlines, (not_before, key))
        if len(deadlines) > 2 * len(pending) + 64:
            # Mostly superseded entries (re-scheduled, merged or deleted
            # keys): rebuild from the dict so the heap stays O(pending).
            deadlines[:] = [(when, k) for k, (_h, when, _o) in pending.items()]
            heapq.heapify(deadlines)
        return True

    def _shed_stale(
        self, entries: List[Entry], large_refs: Mapping[bytes, LargeItem]
    ) -> Tuple[List[Entry], Mapping[bytes, LargeItem], List[bytes]]:
        """What a rebuild keeps of ``entries`` and ``large_refs`` once the
        copies with a removal pending are dropped, and the keys dropped.

        Only a write-combining zone does this: a pending copy is shadowed
        by the N-zone, so whichever reconstruction next touches its block
        is the removal — the deadline only bounds how long it may wait.
        At region 0 removals keep to their deadlines (the paper's policy,
        and what the committed results were taken with).  The caller
        settles the keys with :meth:`_forget_stale` once the new block is
        in place.
        """
        pending = self._pending_removals
        if not (self.append_region_bytes and pending):
            return entries, large_refs, []
        stale = [e[1] for e in entries if e[1] in pending]
        stale += [key for key in large_refs if key in pending]
        if stale:
            entries = [e for e in entries if e[1] not in pending]
            large_refs = {k: v for k, v in large_refs.items() if k not in pending}
        return entries, large_refs, stale

    def _forget_stale(self, stale: List[bytes]) -> None:
        """The removals of ``stale`` rode a rebuild: "merged into one"."""
        for key in stale:
            self._pending_removals.pop(key, None)
        self.stats.pending_removals_merged += len(stale)

    # -- insertion internals ------------------------------------------------------

    def _put_staged(self, leaf: Block, key: bytes, value: bytes, hashed: int) -> None:
        """The small-item put: stage in O(item) while the block's append
        region has room, otherwise reconstruct the block (:meth:`_merge`).

        With ``append_region_bytes == 0`` the region never has room, so
        every put is a reconstruction — the paper's baseline write.  While
        a key sits staged, a stale copy may remain in the compressed
        container (or as a large ref) — reads are shadowed by the staging
        index and the merge scrubs the stale copy, so both copies are
        charged for memory and counted until the merge reconciles them.
        """
        entry_size = 14 + len(key) + len(value)
        if leaf.staged_bytes + entry_size <= self.append_region_bytes:
            old_bytes = leaf.memory_bytes
            is_new = leaf.stage_put(key, value, hashed)
            self.stats.staged_puts += 1
            self._recharge(old_bytes, leaf.memory_bytes)
            if is_new:
                self._item_count += 1
            return
        if not self._merge(leaf, item_entry(key, value, hashed)):
            # Damaged and quarantined; put into the rebuilt empty slot.
            self._put_staged(self._trie.find_leaf(hashed), key, value, hashed)

    def _merge(self, leaf: Block, incoming: Optional[Entry] = None) -> bool:
        """Reconstruct ``leaf`` from its container, its staged entries and
        ``incoming`` — the one way items enter a compressed container.

        One decode + one compression merges everything (the amortisation
        the append region exists to buy), splitting the block when the
        result outgrows it.  Returns False when the data could not be
        preserved: staged CRC failure or damaged container, the block
        having been quarantined.
        """
        if incoming is None and not leaf.staged_index:
            if leaf.staged_buffer:
                # Only dead bytes remain (every staged key was deleted):
                # no merge needed, just reclaim the buffer in place.
                old_bytes = leaf.memory_bytes
                leaf.staged_buffer = bytearray()
                leaf.staged_checksum = 0
                self._recharge(old_bytes, leaf.memory_bytes)
            return True
        if not leaf.staged_checksum_ok():
            self.stats.staged_checksum_failures += 1
            self._quarantine(leaf)
            return False
        container = self._container_of(leaf)
        if container is None:
            return False
        newest: Dict[bytes, Entry] = {}
        if leaf.staged_index:
            self.stats.staging_flushes += 1
            newest = {
                it.key: item_entry(it.key, it.value, it.hashed_key)
                for it in leaf.staged_items()
            }
        if incoming is not None:
            newest[incoming[1]] = incoming
        entries = [e for e in container_entries(container) if e[1] not in newest]
        entries.extend(newest.values())
        large_refs = {
            k: v for k, v in leaf.large_refs.items() if k not in newest
        }
        entries, large_refs, stale = self._shed_stale(entries, large_refs)
        entries.sort()
        old_total = leaf.item_count + leaf.staged_count + len(leaf.large_refs)
        if self._serialized(entries) <= self.block_capacity:
            self._rebuild(leaf, entries, large_refs)
        else:
            self._split(leaf, entries, large_refs)
        # Count only after the new structure is in place so a failed
        # reconstruction leaves the zone's accounting untouched.
        self._item_count += len(entries) + len(large_refs) - old_total
        self._forget_stale(stale)
        return True

    @staticmethod
    def _serialized(entries: List[Entry]) -> int:
        """Container bytes ``entries`` would occupy."""
        return sum([len(wire) for _hashed, _key, wire in entries])

    def _put_large(self, leaf: Block, key: bytes, value: bytes, hashed: int) -> None:
        if key in leaf.staged_index:
            # Large items bypass the append region; when a staged copy of
            # this very key exists, flush first so it cannot shadow (or be
            # shadowed by) the large one.  Other staged keys ride through
            # the rebuild below untouched.
            self._merge(leaf)
            leaf = self._trie.find_leaf(hashed)
        compressed, codec = self._with_codec(
            lambda codec: (codec.compress(value), codec)
        )
        large = LargeItem(
            key=key,
            hashed_key=hashed,
            compressed=compressed,
            uncompressed_size=len(key) + len(value),
            codec=codec,
        )
        if leaf.maybe_contains(hashed) and key not in leaf.large_refs:
            # The key may exist compacted in the container: rebuild without
            # it so the item is not doubly stored.
            container = self._container_of(leaf)
            if container is None:
                # Quarantined: fall through to the rebuilt empty slot.
                leaf = self._trie.find_leaf(hashed)
            else:
                entries = [e for e in container_entries(container) if e[1] != key]
                was_present = (
                    len(entries) < leaf.item_count or key in leaf.large_refs
                )
                large_refs = dict(leaf.large_refs)
                large_refs[key] = large
                self._rebuild(leaf, entries, large_refs, adopt_staging=True)
                if not was_present:
                    self._item_count += 1
                return
        if key not in leaf.large_refs:
            self._item_count += 1
        old_bytes = leaf.memory_bytes
        leaf.add_large(large)
        self._recharge(old_bytes, leaf.memory_bytes)

    def _rebuild(
        self,
        old: Block,
        entries: List[Entry],
        large_refs: Dict[bytes, LargeItem],
        adopt_staging: bool = False,
    ) -> Block:
        """Put a block of ``entries`` in ``old``'s place: trie slot, sweep
        ring, byte accounting; optionally carrying the append region over."""
        new = self._build_block(
            entries, depth=old.depth, prefix=old.prefix, large_refs=large_refs
        )
        if adopt_staging and old.staged_index:
            new.adopt_staging(old)
        self._trie.replace_leaf(old, new)
        self._splice_replace(old, [new])
        self._recharge(old.memory_bytes, new.memory_bytes)
        return new

    def _split(
        self,
        old: Block,
        entries: List[Entry],
        large_refs: Dict[bytes, LargeItem],
    ) -> None:
        """Split ``old`` into two children by the next hashed-key bit.

        If a child is itself overloaded (possible only under pathological
        hash clustering), it is built anyway and immediately split again —
        each step is a legitimate binary trie split, as in Figure 3.
        Splitting stops at the trie's depth cap: keys whose hashes agree
        on the first 48 bits cannot be separated, and their block simply
        stays oversized (correct, merely less efficient).
        """
        from repro.zzone.trie import MAX_DEPTH

        if old.depth >= MAX_DEPTH:
            self._rebuild(old, entries, large_refs)
            return
        trie_before = self._trie.memory_bytes
        bit_shift = 63 - old.depth
        left_entries = [e for e in entries if not (e[0] >> bit_shift) & 1]
        right_entries = [e for e in entries if (e[0] >> bit_shift) & 1]
        left_large = {
            k: v for k, v in large_refs.items() if not (v.hashed_key >> bit_shift) & 1
        }
        right_large = {
            k: v for k, v in large_refs.items() if (v.hashed_key >> bit_shift) & 1
        }
        left = self._build_block(
            left_entries,
            depth=old.depth + 1,
            prefix=old.prefix * 2,
            large_refs=left_large,
        )
        right = self._build_block(
            right_entries,
            depth=old.depth + 1,
            prefix=old.prefix * 2 + 1,
            large_refs=right_large,
        )
        self.stats.splits += 1
        self._trie.split_leaf(old, left, right)
        self._splice_replace(old, [left, right])
        self._recharge(
            old.memory_bytes + trie_before,
            left.memory_bytes + right.memory_bytes + self._trie.memory_bytes,
        )
        for child, child_entries, child_large in (
            (left, left_entries, left_large),
            (right, right_entries, right_large),
        ):
            if self._serialized(child_entries) > self.block_capacity:
                self._split(child, child_entries, child_large)

    # -- removal internals ---------------------------------------------------------

    def _remove_from_block(self, leaf: Block, key: bytes, hashed: int) -> bool:
        staged_removed = False
        if key in leaf.staged_index:
            # Unindex the staged copy without a flush: its bytes stay in
            # the buffer as dead space (the next merge drops them, and the
            # running CRC still covers the whole buffer), so the append
            # region keeps its O(item) put amortisation.  A stale shadow
            # of the key in the compressed container or the large refs is
            # scrubbed below.
            del leaf.staged_index[key]
            self._item_count -= 1
            staged_removed = True
        container = self._container_of(leaf)
        if container is None:
            # Quarantined whole; the key is gone either way.
            return staged_removed
        remaining = [e for e in container_entries(container) if e[1] != key]
        large_refs = {k: v for k, v in leaf.large_refs.items() if k != key}
        removed = (
            leaf.item_count - len(remaining) + len(leaf.large_refs) - len(large_refs)
        )
        if not removed:
            if not staged_removed:
                self.stats.false_positives += 1
            return staged_removed
        remaining, large_refs, stale = self._shed_stale(remaining, large_refs)
        self._rebuild(leaf, remaining, large_refs, adopt_staging=True)
        self._item_count -= removed + len(stale)
        self._forget_stale(stale)
        return True

    # -- replacement (§3.2) -----------------------------------------------------------

    def _execute_pending_removals(self) -> None:
        """Remove the copies whose postponement has run out, in the order
        they were first scheduled."""
        now = self.clock.now()
        pending = self._pending_removals
        deadlines = self._removal_deadlines
        due = []
        while deadlines and deadlines[0][0] <= now:
            when, key = heapq.heappop(deadlines)
            entry = pending.get(key)
            if entry is not None and entry[1] == when:
                due.append((entry[2], key))
        due.sort()
        for _order, key in due:
            entry = pending.pop(key, None)
            if entry is None:
                # Already gone with an earlier key's rebuild of the same
                # block: a write-combining zone pays one per block.
                continue
            hashed = entry[0]
            leaf = self._trie.find_leaf(hashed)
            if leaf is not None and leaf.maybe_contains(hashed):
                if self._remove_from_block(leaf, key, hashed):
                    self.stats.pending_removals_executed += 1

    def _evict_to_fit(self) -> None:
        if self._used <= self.capacity:
            return
        # Graceful degradation under severe pressure (e.g. an injected
        # capacity squeeze): skip the Access Filter's protection outright
        # and force-sweep until the zone fits again.
        emergency = self._used - self.capacity > int(self.capacity * EMERGENCY_OVERAGE)
        if emergency:
            self.stats.emergency_sweeps += 1
        self._execute_pending_removals()
        visits_without_progress = 0
        while self._used > self.capacity:
            block = self._hand
            if block is None:
                return
            self._hand = block.next_block
            self.stats.sweep_visits += 1
            force = emergency or visits_without_progress > self._trie.block_count
            progressed = self._sweep_block(block, force=force)
            progressed = self._maybe_merge_empty(block) or progressed
            if progressed:
                visits_without_progress = 0
            else:
                visits_without_progress += 1
                if visits_without_progress > 2 * self._trie.block_count + 4:
                    # A full forced cycle freed nothing: the zone is at
                    # its structural floor (metadata of empty blocks and
                    # the index itself).  Stop rather than spin.
                    return

    def _maybe_merge_empty(self, block: Block) -> bool:
        """Collapse empty sibling leaves to reclaim their metadata.

        Repeats up the trie while the merged parent's sibling is also an
        empty leaf.  Returns whether any merge happened.
        """
        merged = False
        while (
            block.depth > 0
            and block.item_count == 0
            and not block.large_refs
            and not block.staged_index
        ):
            sibling_prefix = block.prefix ^ 1
            sibling = self._trie.get_leaf(block.depth, sibling_prefix)
            if (
                sibling is None
                or sibling.item_count != 0
                or sibling.large_refs
                or sibling.staged_index
            ):
                return merged
            left, right = (
                (block, sibling) if block.prefix % 2 == 0 else (sibling, block)
            )
            parent = self._build_block(
                [], depth=block.depth - 1, prefix=block.prefix // 2
            )
            trie_before = self._trie.memory_bytes
            self._trie.merge_leaves(left, right, parent)
            self._splice_remove(right)
            self._splice_replace(left, [parent])
            self._recharge(
                left.memory_bytes + right.memory_bytes + trie_before,
                parent.memory_bytes + self._trie.memory_bytes,
            )
            merged = True
            block = parent
        return merged

    def _sweep_block(self, block: Block, force: bool = False) -> bool:
        """Evict from one block; returns whether any bytes were freed.

        Victims are a random half of the items not recorded in the Access
        Filter; the filter is cleared before moving on so that the next
        visit sees only fresh accesses (§3.2).  ``force`` overrides the
        filter when a full sweep cycle made no progress (pathological
        all-hot zone).
        """
        freed = False
        if block.staged_index and force:
            # Emergency pressure merges the append region outright:
            # compressing the raw staged bytes frees their overhead and
            # leaves a plain compressed block for the forced re-visit.
            self._merge(block)
            return True
        # A non-forced sweep leaves the append region alone: staged
        # entries are by definition the block's most recently written
        # items, exactly what CLOCK's reference pass protects.  Eviction
        # targets the compressed container, and every rebuild below
        # carries the staging area over (``adopt_staging=True``) so the
        # region keeps its O(item) put amortisation under cache pressure.
        # Verify the container before touching any accounting: a damaged
        # block is quarantined whole, which frees its bytes — progress.
        entries: List[Entry] = []
        if block.item_count > 0:
            container = self._container_of(block)
            if container is None:
                return True
            # Survivors are entries sliced straight into the replacement
            # container — no per-item decode/re-encode.
            entries = container_entries(container)
        # Stale copies go before any live victim, whatever the Access
        # Filter says: the GET that promoted an item also marked it hot.
        entries, large_refs, stale = self._shed_stale(entries, block.large_refs)
        # Large refs behave like one-item blocks with a reference bit.
        hot_large = {}
        for key, large in large_refs.items():
            if large.accessed and self.use_access_filter and not force:
                large.accessed = False
                hot_large[key] = large
            else:
                self.stats.evicted_items += 1
                self.stats.evicted_bytes += large.uncompressed_size
                self._item_count -= 1
                freed = True
        if block.item_count > 0:
            if force or not self.use_access_filter:
                candidates = list(range(len(entries)))
            else:
                accessed = block.was_accessed
                candidates = [
                    position
                    for position, (hashed, _key, _wire) in enumerate(entries)
                    if not accessed(hashed)
                ]
            victims: set = set()
            if candidates:
                victim_count = max(1, math.ceil(len(candidates) / 2))
                victims = set(self._rng.sample(candidates, victim_count))
            if victims or stale or len(hot_large) != len(block.large_refs):
                survivors = [
                    entry
                    for position, entry in enumerate(entries)
                    if position not in victims
                ]
                self.stats.evicted_items += len(victims)
                self.stats.evicted_bytes += sum(
                    len(entries[position][2]) - 14 for position in victims
                )
                self._rebuild(block, survivors, hot_large, adopt_staging=True)
                self._item_count -= len(victims) + len(stale)
                self._forget_stale(stale)
                return True
        elif len(hot_large) != len(block.large_refs):
            old_bytes = block.memory_bytes
            block.large_refs = hot_large or NO_LARGE_REFS
            self._recharge(old_bytes, block.memory_bytes)
            self._item_count -= len(stale)
            self._forget_stale(stale)
            return True
        block.access_bits = 0
        if (
            not freed
            and block.staged_index
            and 2 * block.staged_bytes >= self.append_region_bytes
        ):
            # Nothing in the container was evictable (all hot, or empty)
            # and the region holds enough raw bytes that compressing them
            # frees real memory: merge.  A near-empty region is left alone
            # — flushing it would reset the put amortisation for crumbs.
            self._merge(block)
            return True
        return freed

    # -- accounting and invariants ----------------------------------------------------

    def items(self):
        """Iterate resident (key, value) pairs (decompressing blocks), each
        key once with the value a GET returns: a staged entry shadows the
        key's container or large-ref copy.

        Accounting-neutral: used by snapshots and debugging, so the
        decompressions are *not* charged to the stats the performance
        model prices.  Damaged blocks found along the way are quarantined
        and skipped rather than crashing the iteration.
        """
        for leaf in list(self._trie.leaves()):
            if leaf.staged_index and not leaf.staged_checksum_ok():
                # Damaged staged bytes quarantine the whole block, same as
                # a damaged container — and before anything of the leaf is
                # yielded, so a snapshot never holds items the zone just
                # dropped.
                self.stats.staged_checksum_failures += 1
                self._quarantine(leaf)
                continue
            container = self._container_of(leaf, charge=False)
            if container is None:
                continue
            staged = leaf.staged_index
            for item in decode_items(container):
                if item.key not in staged:
                    yield item.key, item.value
            for key, large in list(leaf.large_refs.items()):
                if key in staged:
                    continue
                value = self._large_bytes(leaf, key, large, charge=False)
                if value is not None:
                    yield key, value
            for item in leaf.staged_items():
                yield item.key, item.value

    def memory_usage(self) -> Dict[str, int]:
        """Byte breakdown: compressed items, staged items, metadata, index."""
        stored = 0
        metadata = 0
        uncompressed = 0
        staged = 0
        for leaf in self._trie.leaves():
            stored += leaf.stored_bytes
            staged += leaf.staged_bytes
            metadata += (
                leaf.memory_bytes
                - leaf.stored_bytes
                - leaf.staged_bytes
                - sum(
                    ref.compressed.stored_size
                    for ref in leaf.large_refs.values()
                )
            )
            stored += sum(ref.compressed.stored_size for ref in leaf.large_refs.values())
            uncompressed += leaf.uncompressed_size + leaf.staged_bytes + sum(
                ref.uncompressed_size for ref in leaf.large_refs.values()
            )
        return {
            "compressed_items": stored,
            "uncompressed_items": uncompressed,
            "block_metadata": metadata,
            "staged_items": staged,
            "trie_index": self._trie.memory_bytes,
            "total": self._used,
        }

    def average_trie_probes(self) -> float:
        return self._trie.average_probes()

    def check_invariants(self) -> None:
        """Verify accounting, ring integrity, and trie consistency."""
        total = self._trie.memory_bytes
        item_total = 0
        for leaf in self._trie.leaves():
            total += leaf.memory_bytes
            item_total += leaf.item_count + leaf.staged_count + len(leaf.large_refs)
        if total != self._used:
            raise AssertionError(
                f"used_bytes={self._used} but structures sum to {total}"
            )
        if item_total != self._item_count:
            raise AssertionError(
                f"item_count={self._item_count} but leaves hold {item_total}"
            )
        # Ring must contain exactly the trie's leaves.
        ring = []
        node = self._hand
        for _ in range(self._trie.block_count):
            ring.append(node)
            node = node.next_block
        if node is not self._hand or len(set(map(id, ring))) != self._trie.block_count:
            raise AssertionError("sweep ring out of sync with trie leaves")
