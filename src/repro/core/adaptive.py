"""Adaptive N/Z space allocation (§3.3.1).

Every window (one minute by default) the controller looks at the fraction
of *expensive* requests serviced at the N-zone.  Below the target (90 %)
it grows the N-zone by 3 % of total cache space; above it, it shrinks by
the same step.  The action hysteresis from the paper is kept: a grow is
only triggered when the current action status is not already *expand*, a
shrink only when it is not already *shrink* — so the controller moves one
step per reversal rather than oscillating inside a window.

Requests that need no block (de)compression — filter-identified GET misses
and DELETEs of absent keys — are excluded from both counts, so the
controller regulates only the expensive work.  The counts are the core's
own ``ZExpanderStats.serviced_nzone/serviced_zzone``: a window is their
difference between the instants it opens and closes.
"""

from __future__ import annotations

import enum
from typing import Optional


#: Neither zone's target may fall below this share of the total (§3.3.1).
MIN_ZONE_FRACTION = 0.05
#: One adjustment moves the boundary by this share of the total (§3.3.1).
STEP_FRACTION = 0.03
#: A window whose N-zone share is within this of the target moves nothing.
SLACK = 0.02


class AllocationAction(enum.Enum):
    """Z-zone action status, as named in the paper."""

    EXPAND = "expand"  # Z-zone expanding == N-zone shrinking
    SHRINK = "shrink"  # Z-zone shrinking == N-zone growing
    STAY = "stay"


class AdaptiveAllocator:
    """Computes the N-zone's target size from windowed service fractions."""

    def __init__(
        self,
        total_capacity: int,
        initial_nzone_target: int,
        target_fraction: float,
        window_seconds: float,
    ) -> None:
        if initial_nzone_target <= 0 or initial_nzone_target >= total_capacity:
            raise ValueError("initial N-zone target must be inside the cache")
        self.total_capacity = total_capacity
        self.target_fraction = target_fraction
        # A sub-byte step would round to 0 on tiny caches and freeze the
        # N/Z boundary forever; one byte is the smallest honest move.
        self.step_bytes = max(1, int(total_capacity * STEP_FRACTION))
        self.window_seconds = window_seconds
        floor = int(total_capacity * MIN_ZONE_FRACTION)
        self._min_target = floor
        self._max_target = total_capacity - floor
        self._nzone_target = initial_nzone_target
        self._action = AllocationAction.STAY
        self._window_start: Optional[float] = None
        #: ``(serviced_nzone, serviced_zzone)`` when the window opened.
        self._opened_at = (0, 0)

    # -- accounting ------------------------------------------------------------

    @property
    def nzone_target(self) -> int:
        return self._nzone_target

    @property
    def zzone_target(self) -> int:
        return self.total_capacity - self._nzone_target

    # -- the decision rule --------------------------------------------------------

    def maybe_adjust(self, now: float, stats) -> bool:
        """Close the window if due; returns True when targets changed.

        ``stats`` is the core's :class:`~repro.core.stats.ZExpanderStats`;
        the window's service counts are what its ``serviced_*`` fields
        gained since the window opened."""
        if self._window_start is None:
            self._window_start = now
            self._opened_at = (stats.serviced_nzone, stats.serviced_zzone)
            return False
        if now - self._window_start < self.window_seconds:
            return False
        opened_nzone, opened_zzone = self._opened_at
        nzone = stats.serviced_nzone - opened_nzone
        total = nzone + stats.serviced_zzone - opened_zzone
        self._window_start = now
        self._opened_at = (stats.serviced_nzone, stats.serviced_zzone)
        if total == 0:
            self._action = AllocationAction.STAY
            return False
        fraction = nzone / total
        changed = False
        if fraction < self.target_fraction - SLACK:
            # Too much expensive traffic at the Z-zone: grow the N-zone.
            # The hysteresis guard delays an immediate reversal of a
            # Z-zone expansion by one window.
            if self._action is not AllocationAction.EXPAND:
                changed = self._move_target(+self.step_bytes)
                self._action = AllocationAction.SHRINK
            else:
                self._action = AllocationAction.STAY
        elif fraction > self.target_fraction + SLACK:
            if self._action is not AllocationAction.SHRINK:
                changed = self._move_target(-self.step_bytes)
                self._action = AllocationAction.EXPAND
            else:
                self._action = AllocationAction.STAY
        else:
            self._action = AllocationAction.STAY
        return changed

    def _move_target(self, delta: int) -> bool:
        proposed = self._nzone_target + delta
        clamped = max(self._min_target, min(self._max_target, proposed))
        if clamped == self._nzone_target:
            return False
        self._nzone_target = clamped
        return True
