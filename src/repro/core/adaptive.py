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
controller regulates only the expensive work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


#: Neither zone's target may fall below this share of the total (§3.3.1).
MIN_ZONE_FRACTION = 0.05


class AllocationAction(enum.Enum):
    """Z-zone action status, as named in the paper."""

    EXPAND = "expand"  # Z-zone expanding == N-zone shrinking
    SHRINK = "shrink"  # Z-zone shrinking == N-zone growing
    STAY = "stay"


@dataclass
class WindowCounts:
    """Expensive-request tallies for the current window."""

    nzone: int = 0
    zzone: int = 0

    @property
    def total(self) -> int:
        return self.nzone + self.zzone

    def fraction_nzone(self) -> Optional[float]:
        if self.total == 0:
            return None
        return self.nzone / self.total


class AdaptiveAllocator:
    """Computes the N-zone's target size from windowed service fractions."""

    def __init__(
        self,
        total_capacity: int,
        initial_nzone_target: int,
        target_fraction: float = 0.90,
        slack: float = 0.02,
        step_fraction: float = 0.03,
        window_seconds: float = 60.0,
        min_zone_fraction: float = MIN_ZONE_FRACTION,
    ) -> None:
        if initial_nzone_target <= 0 or initial_nzone_target >= total_capacity:
            raise ValueError("initial N-zone target must be inside the cache")
        self.total_capacity = total_capacity
        self.target_fraction = target_fraction
        self.slack = slack
        # A sub-byte step would round to 0 on tiny caches and freeze the
        # N/Z boundary forever; one byte is the smallest honest move.
        self.step_bytes = max(1, int(total_capacity * step_fraction))
        self.window_seconds = window_seconds
        floor = int(total_capacity * min_zone_fraction)
        self._min_target = floor
        self._max_target = total_capacity - floor
        self._nzone_target = initial_nzone_target
        self._action = AllocationAction.STAY
        self._window = WindowCounts()
        self._window_start: Optional[float] = None

    # -- accounting ------------------------------------------------------------

    @property
    def nzone_target(self) -> int:
        return self._nzone_target

    @property
    def zzone_target(self) -> int:
        return self.total_capacity - self._nzone_target

    @property
    def action(self) -> AllocationAction:
        return self._action

    def record_nzone(self, count: int = 1) -> None:
        self._window.nzone += count

    def record_zzone(self, count: int = 1) -> None:
        self._window.zzone += count

    # -- the decision rule --------------------------------------------------------

    def maybe_adjust(self, now: float) -> bool:
        """Close the window if due; returns True when targets changed."""
        if self._window_start is None:
            self._window_start = now
            return False
        if now - self._window_start < self.window_seconds:
            return False
        fraction = self._window.fraction_nzone()
        self._window = WindowCounts()
        self._window_start = now
        if fraction is None:
            self._action = AllocationAction.STAY
            return False
        changed = False
        if fraction < self.target_fraction - self.slack:
            # Too much expensive traffic at the Z-zone: grow the N-zone.
            # The hysteresis guard delays an immediate reversal of a
            # Z-zone expansion by one window.
            if self._action is not AllocationAction.EXPAND:
                changed = self._move_target(+self.step_bytes)
                self._action = AllocationAction.SHRINK
            else:
                self._action = AllocationAction.STAY
        elif fraction > self.target_fraction + self.slack:
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
