"""LIRS — Low Inter-reference Recency Set replacement (Jiang & Zhang,
SIGMETRICS'02; the paper's first author is one of zExpander's authors).

LIRS partitions resident items into LIR (low inter-reference recency, the
protected majority) and HIR (high IRR, a small probationary set).  Two
structures drive it:

* stack **S** — recency order of LIR items, resident HIR items, and
  non-resident HIR *ghosts* whose history is still useful;
* queue **Q** — resident HIR items in eviction (FIFO) order.

An HIR item re-referenced while still in S has, by construction, an IRR
smaller than some LIR item's recency — so it is promoted to LIR and the
stack-bottom LIR is demoted.  Eviction always takes Q's front.

This implementation generalises budgets to bytes (LIR share = capacity −
HIR share; HIR share defaults to 1 % as in the LIRS paper) and bounds the
ghost population, trimming the oldest ghosts beyond the bound.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Tuple

from repro.replacement.base import EvictingCache, admit_oversized

#: The HIR (resident, non-LIR) partition's share of the capacity.
HIR_FRACTION = 0.01
#: Ghost (non-resident HIR) entries kept, per resident item.
GHOST_MULTIPLE = 2.0

_LIR = 0
_HIR_RESIDENT = 1
_HIR_GHOST = 2


class LIRSCache(EvictingCache):
    """Size-aware LIRS with bounded ghost history."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._hir_capacity = max(1, int(capacity * HIR_FRACTION))
        self._lir_capacity = capacity - self._hir_capacity
        # Stack S: key -> [state, size, seq]; last item is the stack top.
        self._s: "OrderedDict[int, list]" = OrderedDict()
        # Queue Q: resident HIR in FIFO order; key -> size.
        self._q: "OrderedDict[int, int]" = OrderedDict()
        self._lir_bytes = 0
        self._ghost_count = 0
        self._seq = 0
        # Lazy ghost-trim log: (key, seq) at ghost-creation time.
        self._ghost_log: Deque[Tuple[int, int]] = deque()

    # -- internal helpers ---------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _stack_push(self, key: int, state: int, size: int) -> None:
        entry = self._s.pop(key, None)
        if entry is not None and entry[0] == _HIR_GHOST:
            self._ghost_count -= 1
        seq = self._next_seq()
        self._s[key] = [state, size, seq]
        if state == _HIR_GHOST:
            self._ghost_count += 1
            self._ghost_log.append((key, seq))

    def _prune(self) -> None:
        """Pop non-LIR entries off the stack bottom (LIRS stack pruning)."""
        while self._s:
            key = next(iter(self._s))
            entry = self._s[key]
            if entry[0] == _LIR:
                return
            if entry[0] == _HIR_GHOST:
                self._ghost_count -= 1
            # HIR-resident entries remain reachable through Q.
            del self._s[key]

    def _demote_lir_overflow(self) -> None:
        """Demote stack-bottom LIR items until the LIR byte budget holds."""
        while self._lir_bytes > self._lir_capacity and self._s:
            bottom_key = next(iter(self._s))
            entry = self._s.pop(bottom_key)
            if entry[0] != _LIR:
                # _prune keeps a LIR at the bottom, but be defensive.
                if entry[0] == _HIR_GHOST:
                    self._ghost_count -= 1
                continue
            self._lir_bytes -= entry[1]
            self._q[bottom_key] = entry[1]
            self._prune()

    def _evict_one_hir(self) -> None:
        """Evict the front of Q; keep its ghost if it is still in S."""
        if not self._q:
            # All residents are LIR (degenerate small-cache case): demote
            # the stack-bottom LIR so Q has a victim.
            if not self._s:
                return
            bottom_key = next(iter(self._s))
            entry = self._s.pop(bottom_key)
            if entry[0] == _LIR:
                self._lir_bytes -= entry[1]
                self._q[bottom_key] = entry[1]
            elif entry[0] == _HIR_GHOST:
                self._ghost_count -= 1
            self._prune()
            if not self._q:
                return
        key, size = self._q.popitem(last=False)
        self._used -= size
        entry = self._s.get(key)
        if entry is not None and entry[0] == _HIR_RESIDENT:
            entry[0] = _HIR_GHOST
            self._ghost_count += 1
            self._ghost_log.append((key, entry[2]))

    def _trim_ghosts(self) -> None:
        resident = len(self._q) + self._lir_count()
        limit = max(64, int(GHOST_MULTIPLE * resident))
        while self._ghost_count > limit and self._ghost_log:
            key, seq = self._ghost_log.popleft()
            entry = self._s.get(key)
            if entry is not None and entry[0] == _HIR_GHOST and entry[2] == seq:
                del self._s[key]
                self._ghost_count -= 1
                self._prune()

    def _lir_count(self) -> int:
        # LIR population is only needed for the ghost bound; an exact count
        # would need a counter — maintain one cheaply from bytes instead.
        # Approximate by assuming >=1 byte per item is fine for a bound.
        return max(1, len(self._s) - self._ghost_count)

    # -- EvictingCache interface --------------------------------------------

    def access(self, key: int, size: int) -> bool:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")

        entry = self._s.get(key)
        if entry is not None and entry[0] == _LIR:
            # LIR hit: refresh recency, prune if it was the bottom.
            self._lir_bytes += size - entry[1]
            self._used += size - entry[1]
            self._stack_push(key, _LIR, size)
            self._prune()
            self._demote_lir_overflow()
            self._shrink_to_capacity()
            return True

        if key in self._q:
            # Resident HIR hit.
            old_size = self._q[key]
            self._used += size - old_size
            if entry is not None:
                # In S: IRR beat some LIR item -> promote.
                del self._q[key]
                self._lir_bytes += size
                self._stack_push(key, _LIR, size)
                self._demote_lir_overflow()
            else:
                # Not in S: stays HIR; refresh both structures.
                del self._q[key]
                self._q[key] = size
                self._stack_push(key, _HIR_RESIDENT, size)
            self._prune()
            self._shrink_to_capacity()
            self._trim_ghosts()
            return True

        # Miss.
        if admit_oversized(self, size):
            return False
        while self._used + size > self.capacity:
            self._evict_one_hir()

        was_ghost = entry is not None and entry[0] == _HIR_GHOST
        if was_ghost:
            self._lir_bytes += size
            self._used += size
            self._stack_push(key, _LIR, size)
            self._demote_lir_overflow()
        elif self._lir_bytes + size <= self._lir_capacity:
            # Cold start: fill the LIR partition first.
            self._lir_bytes += size
            self._used += size
            self._stack_push(key, _LIR, size)
        else:
            self._used += size
            self._q[key] = size
            self._stack_push(key, _HIR_RESIDENT, size)
        self._prune()
        self._shrink_to_capacity()
        self._trim_ghosts()
        return False

    def _shrink_to_capacity(self) -> None:
        while self._used > self.capacity:
            self._evict_one_hir()

    def delete(self, key: int) -> bool:
        entry = self._s.get(key)
        if key in self._q:
            self._used -= self._q.pop(key)
            if entry is not None:
                if entry[0] == _HIR_GHOST:
                    self._ghost_count -= 1
                del self._s[key]
                self._prune()
            return True
        if entry is not None and entry[0] == _LIR:
            self._lir_bytes -= entry[1]
            self._used -= entry[1]
            del self._s[key]
            self._prune()
            return True
        if entry is not None and entry[0] == _HIR_GHOST:
            del self._s[key]
            self._ghost_count -= 1
            self._prune()
        return False

    def __contains__(self, key: int) -> bool:
        if key in self._q:
            return True
        entry = self._s.get(key)
        return entry is not None and entry[0] == _LIR

    def resident_sizes(self) -> Dict[int, int]:
        sizes = {
            key: entry[1] for key, entry in self._s.items() if entry[0] == _LIR
        }
        sizes.update(self._q)
        return sizes
