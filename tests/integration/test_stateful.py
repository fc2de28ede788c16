"""Hypothesis stateful tests: the cache vs an oracle dictionary.

The rule machine drives a ZExpander (adaptation on, fast markers, and a
capacity below the 61 keys' bytes so that demotion, promotion, sweeps and
due removals all happen within a hundred steps) with interleaved sets/gets/deletes/time-jumps, checking after
every step that the cache never serves wrong bytes, never resurrects
deleted keys, and keeps its internal accounting consistent.

The same machine runs twice: at the default config, where the Z-zone
combines writes and a promoted or overwritten item's Z-zone copy waits
for a postponed removal (so for a while two copies of a key exist and
the stale one must never be served), and at region 0, the paper's
reconstruct-on-every-put with promotion deleting on the spot.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.common.clock import VirtualClock
from repro.core import ZExpander, ZExpanderConfig

KEYS = st.integers(min_value=0, max_value=60)
VALUES = st.binary(min_size=1, max_size=120)


class ZExpanderMachine(RuleBasedStateMachine):
    #: ``append_region_bytes``; None takes the config's default.
    REGION = None

    def __init__(self):
        super().__init__()
        self.clock = VirtualClock()
        self.cache = ZExpander(
            ZExpanderConfig(
                total_capacity=3 * 1024,
                block_capacity=512,
                nzone_fraction=0.3,
                adaptive=True,
                window_seconds=0.5,
                marker_interval_seconds=0.1,
                seed=17,
                append_region_bytes=self.REGION,
            ),
            clock=self.clock,
        )
        #: Oracle of the *last written* value per key.  The cache may
        #: evict (a get then returns None) but must never return stale
        #: or foreign bytes.
        self.oracle = {}
        self.steps = 0

    def _key(self, key_id: int) -> bytes:
        return b"sm:%04d" % key_id

    @rule(key_id=KEYS, value=VALUES)
    def set_item(self, key_id, value):
        self.clock.advance(0.001)
        self.cache.set(self._key(key_id), value)
        self.oracle[key_id] = value
        self.steps += 1

    @rule(key_id=KEYS)
    def get_item(self, key_id):
        self.clock.advance(0.001)
        result = self.cache.get(self._key(key_id))
        if key_id in self.oracle:
            assert result in (None, self.oracle[key_id])
        else:
            assert result is None
        self.steps += 1

    @rule(key_id=KEYS)
    def reread_item(self, key_id):
        """Two GETs a millisecond apart: the second sees a short re-use
        time, which is what promotes a Z-zone item into the N-zone."""
        self.get_item(key_id)
        self.get_item(key_id)

    @rule(key_id=KEYS)
    def delete_item(self, key_id):
        self.clock.advance(0.001)
        self.cache.delete(self._key(key_id))
        self.oracle.pop(key_id, None)
        self.steps += 1

    @rule(seconds=st.floats(min_value=0.01, max_value=30.0))
    def advance_time(self, seconds):
        """Long enough for postponed removals to fall due."""
        self.clock.advance(seconds)

    @precondition(lambda self: self.steps % 7 == 0)
    @rule()
    def check_structures(self):
        self.cache.check_invariants()

    @invariant()
    def budget_partitioned(self):
        assert (
            self.cache.nzone.capacity + self.cache.zzone.capacity
            == self.cache.config.total_capacity
        )

    @invariant()
    def zzone_within_budget(self):
        assert self.cache.zzone.used_bytes <= self.cache.zzone.capacity


class PaperRegionMachine(ZExpanderMachine):
    REGION = 0


_SETTINGS = settings(max_examples=25, stateful_step_count=100, deadline=None)
TestZExpanderStateful = ZExpanderMachine.TestCase
TestZExpanderStateful.settings = _SETTINGS
TestZExpanderStatefulRegion0 = PaperRegionMachine.TestCase
TestZExpanderStatefulRegion0.settings = _SETTINGS
