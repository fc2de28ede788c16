"""Runtime fault injection driven by a :class:`~repro.faults.plan.FaultPlan`.

The injector is the single stateful object a chaos run threads through
the stack: the replay loop calls :meth:`FaultInjector.on_request` before
every request (clock skew, capacity squeezes), the Z-zone calls
:meth:`maybe_corrupt` on the block a keyed operation is about to touch,
and :class:`~repro.faults.codec.FaultyCompressor` calls
:meth:`maybe_fail_codec` around the real codec.

Determinism: each site draws from its own RNG stream derived from the
plan seed (``derive_seed(seed, "fault-<site>")``), so the firing sequence
depends only on (plan, request sequence) — never on wall time or on other
sites' draws.  Two runs with the same plan and trace inject the same
faults at the same positions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.rng import make_rng
from repro.compression.base import Compressed
from repro.faults.plan import SITES, FaultPlan, FaultSpec

#: Keep only this many (position, site) entries in the injection log.
LOG_LIMIT = 64


class FaultInjector:
    """Applies a fault plan's specs at their sites, deterministically."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._by_site: Dict[str, List[FaultSpec]] = {
            site: plan.for_site(site) for site in SITES
        }
        self._rngs = {
            site: make_rng(plan.seed, f"fault-{site}") for site in SITES
        }
        #: Firings per site (all of them, even past the log limit).
        self.injected: Dict[str, int] = {site: 0 for site in SITES}
        #: First LOG_LIMIT firings as (request position, site).
        self.log: List[Tuple[int, str]] = []
        self._position = 0
        #: Active capacity squeeze: (restore-at position, original bytes).
        self._squeeze: Optional[Tuple[int, int]] = None

    # -- firing machinery ------------------------------------------------------

    def _fire(self, spec: FaultSpec) -> bool:
        """Roll ``spec``'s dice at the current position; record a firing."""
        if not spec.active_at(self._position):
            return False
        if spec.limit is not None and self.injected[spec.site] >= spec.limit:
            return False
        if self._rngs[spec.site].random() >= spec.rate:
            return False
        self.injected[spec.site] += 1
        if len(self.log) < LOG_LIMIT:
            self.log.append((self._position, spec.site))
        return True

    # -- site hooks ------------------------------------------------------------

    def on_request(self, position: int, clock=None, cache=None) -> None:
        """Per-request control-plane faults; called before each request."""
        self._position = position
        zzone = getattr(cache, "zzone", None)
        if zzone is not None and self._squeeze is not None:
            restore_at, original = self._squeeze
            if position >= restore_at:
                zzone.resize(original)
                self._squeeze = None
        if clock is not None:
            for spec in self._by_site["clock.skew"]:
                if self._fire(spec):
                    clock.advance(spec.magnitude)
        if zzone is not None and self._squeeze is None:
            for spec in self._by_site["capacity.squeeze"]:
                if self._fire(spec):
                    original = zzone.capacity
                    # Leave room for the trie plus a handful of blocks so
                    # the zone stays operable under any magnitude.
                    floor = 4 * zzone.block_capacity
                    squeezed = max(
                        floor, int(original * (1.0 - spec.magnitude))
                    )
                    self._squeeze = (position + spec.duration, original)
                    zzone.resize(squeezed)
                    break

    def maybe_corrupt(self, block) -> None:
        """Maybe flip one bit in ``block``'s stored bytes.

        The flip lands uniformly across the compressed payload *and* the
        block's write-combining append region (when one is in use), so
        staged uncompressed bytes face the same adversary as compressed
        ones; with nothing staged the draw is identical to the
        payload-only draw, keeping pre-existing chaos runs reproducible.
        The flip preserves ``stored_size`` so byte accounting stays
        consistent — corruption damages *data*, not *bookkeeping* — which
        is exactly what the checksums must catch.  Empty blocks are
        skipped: there is no stored data to damage.
        """
        specs = self._by_site["block.bitflip"]
        if not specs:
            return
        payload = block.compressed.payload
        staged = getattr(block, "staged_buffer", b"")
        if not payload and not staged:
            return
        if getattr(block, "item_count", 1) == 0 and not staged:
            return
        for spec in specs:
            if self._fire(spec):
                payload_bits = len(payload) * 8
                bit = self._rngs["block.bitflip"].randrange(
                    payload_bits + len(staged) * 8
                )
                if bit < payload_bits:
                    corrupted = bytearray(payload)
                    corrupted[bit >> 3] ^= 1 << (bit & 7)
                    block.compressed = Compressed(
                        payload=bytes(corrupted),
                        stored_size=block.compressed.stored_size,
                    )
                else:
                    bit -= payload_bits
                    staged[bit >> 3] ^= 1 << (bit & 7)
                return

    def maybe_fail_codec(self, site: str) -> Optional[str]:
        """Roll the codec-fault dice for ``site``.

        Returns ``None`` (no fault), ``"error"`` (raise), or ``"garbage"``
        (return wrong bytes) — the wrapper decides how to act on it.
        """
        for spec in self._by_site[site]:
            if self._fire(spec):
                return spec.mode
        return None
