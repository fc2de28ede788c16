"""Hypothesis stateful model of the server's store (``ItemMetaStore``).

The machine drives the store the way the server does — ``expire`` on
the command's read keys while the deadline heap is non-empty, a GET as
``cache.get`` plus the key's flags from ``entries`` (a miss drops the
entry), ``gets``, ``cas`` then ``set`` on a match, ``delete`` — over a
cache small enough to evict, and judges every reply against a model of
key -> (value, flags, deadline, version), as ``harness.Oracle.judge``
does (DESIGN §15):

* a miss where the model hits is a legal eviction;
* a value or flags the model never held for that key, or an older
  version, is fatal (so is any hit on a deleted or expired key);
* ``cas`` with the token of the latest ``gets`` of the current version
  stores iff the key is resident; any other token gets EXISTS or
  NOT_FOUND;
* two versions never share a token.

Three caches: a ``ZExpander`` at the paper's region 0 and at the served
default, and a two-shard ``ShardedZExpander``.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.clock import VirtualClock
from repro.core import ShardedZExpander, ZExpander, ZExpanderConfig
from repro.server.meta import DEFAULT_META, ItemMetaStore

KEYS = st.integers(min_value=0, max_value=23)
FLAGS = st.sampled_from([0, 1, 2**32 - 1])
TTLS = st.sampled_from([None, 0.05])
FILLER = st.binary(min_size=0, max_size=100)
#: A token no ``gets`` hands out in a run this short.
NEVER_ISSUED = 10**9


def config(**overrides):
    settings = dict(
        total_capacity=3 * 1024,
        block_capacity=512,
        nzone_fraction=0.3,
        marker_interval_seconds=0.1,
        seed=17,
    )
    return ZExpanderConfig(**{**settings, **overrides})


class StoreMachine(RuleBasedStateMachine):
    def build(self, clock):
        return ZExpander(config(append_region_bytes=0), clock=clock)

    def __init__(self):
        super().__init__()
        self.clock = VirtualClock()
        self.store = ItemMetaStore(self.build(self.clock))
        #: key_id -> (value, flags, deadline, version) of the live version.
        self.model = {}
        #: key_id -> (version, token) of the latest ``gets``.
        self.tokens = {}
        #: token -> (key_id, version) it was handed out for.
        self.issued = {}
        self.versions = 0

    def _key(self, key_id):
        return b"st:%02d" % key_id

    def _command(self, reads=()):
        """The server's per-command prologue: one tick, then expiry."""
        self.clock.advance(0.001)
        if self.store.due:
            self.store.expire([self._key(key_id) for key_id in reads])
        now = self.clock.now()
        for key_id, (_value, _flags, deadline, _version) in list(self.model.items()):
            if deadline is not None and deadline <= now:
                del self.model[key_id]

    def _judge(self, key_id, value, flags):
        """A read's verdict: a miss is always legal, a hit must be the
        live version's bytes and flags."""
        if value is None:
            return
        assert key_id in self.model, "hit on a key deleted, expired or never written"
        live_value, live_flags, _deadline, version = self.model[key_id]
        assert value.startswith(b"%d:" % key_id), "bytes of another key"
        assert value == live_value, f"not version {version} of the key"
        assert flags == live_flags

    def _write(self, key_id, filler, flags, ttl):
        self.versions += 1
        value = b"%d:%d:" % (key_id, self.versions) + filler
        self.store.set(self._key(key_id), value, ttl=ttl, flags=flags)
        deadline = None if ttl is None else self.clock.now() + ttl
        self.model[key_id] = (value, flags, deadline, self.versions)

    @rule(key_id=KEYS, filler=FILLER, flags=FLAGS, ttl=TTLS)
    def set(self, key_id, filler, flags, ttl):
        self._command()
        self._write(key_id, filler, flags, ttl)

    @rule(key_id=KEYS)
    def get(self, key_id):
        self._command([key_id])
        key = self._key(key_id)
        value = self.store.cache.get(key)
        if value is None:
            self.store.entries.pop(key, None)
            return
        self._judge(key_id, value, self.store.entries.get(key, DEFAULT_META)[0])

    @rule(key_id=KEYS)
    def gets(self, key_id):
        self._command([key_id])
        key = self._key(key_id)
        value = self.store.cache.get(key)
        if value is None:
            self.store.entries.pop(key, None)
            return
        flags, token = self.store.gets(key)
        self._judge(key_id, value, flags)
        version = self.model[key_id][3]
        assert token > 0
        owner = self.issued.setdefault(token, (key_id, version))
        assert owner == (key_id, version), "two versions share a token"
        self.tokens[key_id] = (version, token)

    def _cas(self, key_id, token, filler, flags, latest):
        self._command([key_id])
        matched = self.store.cas(self._key(key_id), token)
        if latest:
            assert matched in (True, None)
        else:
            assert matched in (False, None)
        if matched:
            self._write(key_id, filler, flags, None)

    @rule(key_id=KEYS, filler=FILLER, flags=FLAGS)
    def cas_latest(self, key_id, filler, flags):
        live = self.model.get(key_id)
        version, token = self.tokens.get(key_id, (None, NEVER_ISSUED))
        latest = live is not None and live[3] == version
        self._cas(key_id, token, filler, flags, latest)

    @rule(key_id=KEYS, filler=FILLER, flags=FLAGS, other=KEYS)
    def cas_stale(self, key_id, filler, flags, other):
        """A token handed out for another version: this key's older one
        or another key's."""
        live = self.model.get(key_id)
        version, token = self.tokens.get(other, (None, NEVER_ISSUED))
        latest = other == key_id and live is not None and live[3] == version
        self._cas(key_id, token, filler, flags, latest)

    @rule(key_id=KEYS, filler=FILLER, flags=FLAGS)
    def cas_never_issued(self, key_id, filler, flags):
        self._cas(key_id, NEVER_ISSUED, filler, flags, latest=False)

    @rule(key_id=KEYS)
    def delete(self, key_id):
        self._command()
        found = self.store.delete(self._key(key_id))
        if key_id not in self.model:
            assert not found, "delete found a key deleted, expired or never written"
        self.model.pop(key_id, None)

    @rule(seconds=st.sampled_from([0.01, 0.1, 1.0]))
    def advance_clock(self, seconds):
        self.clock.advance(seconds)

    @invariant()
    def entries_are_sparse(self):
        for flags, cas, deadline in self.store.entries.values():
            assert flags or cas or deadline is not None


class DefaultRegionStoreMachine(StoreMachine):
    def build(self, clock):
        return ZExpander(config(), clock=clock)


class ShardedStoreMachine(StoreMachine):
    def build(self, clock):
        return ShardedZExpander(
            config(total_capacity=6 * 1024), num_shards=2, clock=clock
        )


_SETTINGS = settings(max_examples=20, stateful_step_count=60, deadline=None)
TestStoreRegion0 = StoreMachine.TestCase
TestStoreRegion0.settings = _SETTINGS
TestStoreDefault = DefaultRegionStoreMachine.TestCase
TestStoreDefault.settings = _SETTINGS
TestStoreSharded = ShardedStoreMachine.TestCase
TestStoreSharded.settings = _SETTINGS
