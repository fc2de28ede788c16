"""The slot-array N-zone behaves exactly as the list-based one did.

Two Hypothesis state machines drive the shipped :class:`HPCacheZone` /
:class:`CuckooTable` and the verbatim list-based copies in
``reference.py`` with the same operations, and after every step require
the same answers, the same evictions in the same order, the same counts
and — through ``items()`` — the same ring order and cuckoo slot
positions.  The table machine runs tiny tables with short displacement
walks so kicks and growth happen within a few inserts.
"""

from unittest import mock

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.nzone import cuckoo
from repro.nzone.cuckoo import CuckooTable
from repro.nzone.hpcache import HPCacheZone

from . import reference

KEYS = st.sampled_from([b"k%02d" % i for i in range(24)])


class ZoneMachine(RuleBasedStateMachine):
    @initialize(
        capacity=st.sampled_from([700, 1500, 3000, 6000]),
        seed=st.integers(0, 3),
    )
    def build(self, capacity, seed):
        self.zone = HPCacheZone(capacity, seed=seed)
        self.ref = reference.HPCacheZone(capacity, seed=seed)

    @rule(key=KEYS, size=st.integers(0, 400))
    def set(self, key, size):
        value = key * (size // len(key) + 1)
        assert self.zone.set(key, value) == self.ref.set(key, value)

    @rule(key=KEYS)
    def set_larger_than_capacity(self, key):
        value = b"x" * self.zone.capacity
        assert self.zone.set(key, value) == self.ref.set(key, value)

    @rule(key=KEYS)
    def get(self, key):
        assert self.zone.get(key) == self.ref.get(key)

    @rule(key=KEYS)
    def delete(self, key):
        assert self.zone.delete(key) == self.ref.delete(key)

    @rule(key=KEYS)
    def contains(self, key):
        assert (key in self.zone) == (key in self.ref)

    @rule(capacity=st.integers(300, 6000))
    def resize(self, capacity):
        assert self.zone.resize(capacity) == self.ref.resize(capacity)

    @invariant()
    def same_state(self):
        zone, ref = self.zone, self.ref
        assert zone.item_count == ref.item_count
        assert zone.used_bytes == ref.used_bytes
        assert list(zone.items()) == list(ref.items())
        assert zone._hand == ref._hand
        table, ref_table = zone._table, ref._table
        assert table.rehashes == ref_table.rehashes
        assert table.total_kicks == ref_table.total_kicks
        assert table.memory_bytes == ref_table.memory_bytes
        assert [k for k, _ in table.items()] == [k for k, _ in ref_table.items()]
        zone.check_invariants()


class TableMachine(RuleBasedStateMachine):
    """Positions index ``self.keys``; the reference stores the same
    position as its payload, so ``items()`` must agree pair for pair."""

    @initialize(
        buckets=st.sampled_from([2, 4, 8, 16]),
        kicks=st.integers(1, 6),
        seed=st.integers(0, 3),
    )
    def build(self, buckets, kicks, seed):
        self.keys = []
        self.kicks = mock.patch.object(cuckoo, "MAX_KICKS", kicks)
        self.kicks.start()
        self.table = CuckooTable(self.keys, initial_buckets=buckets, seed=seed)
        self.ref = reference.CuckooTable(
            initial_buckets=buckets, max_kicks=kicks, seed=seed
        )

    @rule(key=KEYS)
    def insert(self, key):
        # A re-insert of a resident key moves it to a fresh position.
        self.keys.append(key)
        position = len(self.keys) - 1
        self.table.insert(key, position)
        self.ref.insert(key, position)

    @rule(key=KEYS)
    def get(self, key):
        assert self.table.get(key) == self.ref.get(key)

    @precondition(lambda self: len(self.ref))
    @rule(key=KEYS)
    def delete(self, key):
        assert self.table.delete(key) == self.ref.delete(key)

    @invariant()
    def same_state(self):
        table, ref = self.table, self.ref
        assert len(table) == len(ref)
        assert list(table.items()) == list(ref.items())
        assert table.rehashes == ref.rehashes
        assert table.total_kicks == ref.total_kicks
        assert table.memory_bytes == ref.memory_bytes

    def teardown(self):
        if hasattr(self, "kicks"):
            self.kicks.stop()


MACHINE_SETTINGS = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestZoneMatchesListLayout = ZoneMachine.TestCase
TestZoneMatchesListLayout.settings = MACHINE_SETTINGS
TestTableMatchesListLayout = TableMachine.TestCase
TestTableMatchesListLayout.settings = MACHINE_SETTINGS
