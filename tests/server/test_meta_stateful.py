"""Hypothesis stateful model of the server's store (``ItemMetaStore``) and
of every path that rebuilds it.

The machine drives the store the way the server does — ``expire`` on
the command's read keys while the deadline heap is non-empty, a GET as
``cache.get`` plus the key's flags from ``entries`` (a miss drops the
entry), ``gets``, ``cas`` then ``set`` on a match, ``delete`` — over a
cache small enough to evict, demote, promote and adapt its zone split
within a run, and judges every reply against a model of key -> (value,
flags, deadline, version) with ``harness.Oracle.judge``'s table
(DESIGN §15):

* a miss (``missing``) is always legal: a cache may evict;
* a hit with bytes no version of the key had (``wrong``), on a key never
  written (``unwritten``), with an older version's bytes (``older``), on
  a key deleted or expired (``resurrection``), or with flags the live
  version was not written with (``flags``) is fatal;
* a delete is exact: it finds nothing the model does not hold;
* ``cas`` with the token of the latest ``gets`` of the current version
  stores iff the key is resident; any other token gets EXISTS or
  NOT_FOUND; two versions never share a token.

After every step the store's ``walk()`` (what every image is made of)
is judged the same way, and the cache's structures, its budget split
and its Z-zone's fill are checked.

The journalled targets add one rule per path that rebuilds a store,
each judged by the same table: ``checkpoint``; ``kill_recover`` (reopen
the directory with no ``close()``); ``drain_restart``; ``resync`` (the
primary's ``write_snapshot`` into a standby store through
``ReplicationClient._resync``); ``promote`` (the primary dies, the
standby runs ``catch_up`` on its directory in tail or full mode and
takes its place, so later rules are set- and delete-after-promote);
``rot`` (flip a byte of a closed segment or checkpoint, ``scrub_once``
repairs it by a checkpoint, kill+recover meets no damage).  A TTL is
not in the record format (DESIGN §12.1): across a rebuild an item
keeps its value and flags but may lose its deadline, so the model drops
every deadline and takes back each key whose deadline had passed.  CAS
tokens are not persisted either: they restart with the store.

Targets: a ``ZExpander`` at the paper's region 0 and at the served
default, and a two-shard ``ShardedZExpander``; journalled, the default
``ZExpander`` and the two-shard cache.
"""

import io
import os
import shutil
import tempfile

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.common.clock import VirtualClock
from repro.core import ShardedZExpander, ZExpander, ZExpanderConfig
from repro.core.snapshot import write_snapshot
from repro.durability import DurabilityConfig, DurabilityManager
from repro.durability.journal import list_segments, segment_name
from repro.durability.manager import list_checkpoints
from repro.replication import ReplicationClient
from repro.server.meta import DEFAULT_META, ItemMetaStore
from tests.durability.test_scrub import flip

KEYS = st.integers(min_value=0, max_value=23)
FLAGS = st.sampled_from([0, 1, 2**32 - 1])
TTLS = st.sampled_from([None, 0.05])
FILLER = st.binary(min_size=0, max_size=100)
#: A token no ``gets`` hands out in a run this short.
NEVER_ISSUED = 10**9
#: Bigger than a whole shard, so bigger than any Z-zone the split allows.
OVERSIZED = 3 * 1024
#: The verdicts a cache may return (the rest of ``Oracle.judge``'s table
#: is fatal).
LEGAL = ("ok", "missing")


def config(**overrides):
    settings = dict(
        total_capacity=3 * 1024,
        block_capacity=512,
        nzone_fraction=0.3,
        window_seconds=0.5,
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
        #: key_id -> (value, flags, version) of a version whose deadline
        #: passed with no write or delete since: a rebuild may bring it back.
        self.lapsed = {}
        #: Every value written -> (key_id, version).
        self.written = {}
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
        for key_id, (value, flags, deadline, version) in list(self.model.items()):
            if deadline is not None and deadline <= now:
                del self.model[key_id]
                self.lapsed[key_id] = (value, flags, version)

    def _verdict(self, key_id, value, flags):
        """``Oracle.judge``'s table for one read, plus the flags."""
        if value is None:
            return "missing"
        if not any(owner == key_id for owner, _version in self.written.values()):
            return "unwritten"
        owner = self.written.get(value)
        if owner is None or owner[0] != key_id:
            return "wrong"
        live = self.model.get(key_id)
        if live is None:
            return "resurrection"
        if owner[1] != live[3]:
            return "older"
        return "ok" if flags == live[1] else "flags"

    def _judge(self, key_id, value, flags):
        verdict = self._verdict(key_id, value, flags)
        assert verdict in LEGAL, f"{verdict}: key {key_id} read {value[:24]!r}"

    def _judge_walk(self, store):
        seen = set()
        for key, value, flags in store.walk():
            assert key not in seen, f"walk yielded {key!r} twice"
            seen.add(key)
            self._judge(int(key[3:]), value, flags)

    def _write(self, key_id, filler, flags, ttl):
        self.versions += 1
        value = b"%d:%d:" % (key_id, self.versions) + filler
        self.store.set(self._key(key_id), value, ttl=ttl, flags=flags)
        deadline = None if ttl is None else self.clock.now() + ttl
        self.model[key_id] = (value, flags, deadline, self.versions)
        self.lapsed.pop(key_id, None)
        self.written[value] = (key_id, self.versions)

    @rule(key_id=KEYS, filler=FILLER, flags=FLAGS, ttl=TTLS)
    def set(self, key_id, filler, flags, ttl):
        self._command()
        self._write(key_id, filler, flags, ttl)

    @rule(data=st.data(), flags=FLAGS)
    def set_oversized(self, data, flags):
        """A SET no zone can hold, over a key the N-zone has demoted when
        there is one: the older Z-zone copy must not outlive it."""
        cache = self.store.cache
        demoted = [
            key_id for key_id in sorted(self.model)
            if cache.routes_to_zzone(self._key(key_id))
        ]
        key_id = data.draw(st.sampled_from(demoted) if demoted else KEYS)
        self._command()
        self._write(key_id, b"z" * OVERSIZED, flags, None)

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
    def reread(self, key_id):
        """Two GETs a millisecond apart: the second sees a short re-use
        time, which is what promotes a Z-zone item into the N-zone."""
        self.get(key_id)
        self.get(key_id)

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
        self.lapsed.pop(key_id, None)

    @rule(seconds=st.sampled_from([0.01, 0.1, 1.0, 30.0]))
    def advance_clock(self, seconds):
        """Long steps let postponed removals fall due and adaptation run."""
        self.clock.advance(seconds)

    @invariant()
    def walk_matches_model(self):
        self._judge_walk(self.store)

    @invariant()
    def entries_are_sparse(self):
        for flags, cas, deadline in self.store.entries.values():
            assert flags or cas or deadline is not None

    @invariant()
    def structures_hold(self):
        cache = self.store.cache
        cache.check_invariants()
        for shard in getattr(cache, "shards", [cache]):
            assert (
                shard.nzone.capacity + shard.zzone.capacity
                == shard.config.total_capacity
            )
            assert shard.zzone.used_bytes <= shard.zzone.capacity


class DefaultRegionStoreMachine(StoreMachine):
    def build(self, clock):
        return ZExpander(config(), clock=clock)


def sharded(clock):
    return ShardedZExpander(config(total_capacity=6 * 1024), num_shards=2, clock=clock)


class ShardedStoreMachine(StoreMachine):
    def build(self, clock):
        return sharded(clock)


class Node:
    """One journalled store: the store, its durability manager and its
    directory, opened as a server opens them (recover, then attach)."""

    def __init__(self, machine, directory):
        self.directory = directory
        self.store = ItemMetaStore(machine.build(machine.clock))
        self.manager = DurabilityManager(
            DurabilityConfig(
                directory=directory,
                # Small, so segments rotate within a run.
                segment_bytes=512,
                fsync="never",
                checkpoint_bytes=0,
                scrub_interval=0,
            )
        )
        self.recovery = self.manager.recover_into(self.store)
        self.manager.attach_to(self.store.cache)

    def kill(self):
        """What a killed process leaves: every record was flushed to the
        OS when it was appended, so this adds not a byte."""
        self.manager.writer.close()


class JournalledStoreMachine(DefaultRegionStoreMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="store-machine-")
        self.directories = 0
        self.node = self._open(self._directory())
        self.store = self.node.store
        #: A replica resynced from the primary, and its client.
        self.standby = None
        self.client = None

    def teardown(self):
        for node in (self.node, self.standby):
            if node is not None:
                node.kill()
        shutil.rmtree(self.root, ignore_errors=True)

    def _directory(self):
        self.directories += 1
        return os.path.join(self.root, "node%d" % self.directories)

    def _open(self, directory):
        node = Node(self, directory)
        assert node.recovery.clean, node.recovery.incidents
        return node

    def _take_over(self, node):
        """``node`` serves from now on: judge what it holds against the
        model as a rebuild leaves it."""
        self.node, self.store = node, node.store
        for key_id, (value, flags, version) in self.lapsed.items():
            self.model[key_id] = (value, flags, None, version)
        self.lapsed.clear()
        self.model = {
            key_id: (value, flags, None, version)
            for key_id, (value, flags, _deadline, version) in self.model.items()
        }
        self.tokens.clear()
        self.issued.clear()
        self._judge_walk(self.store)

    @rule()
    def checkpoint(self):
        self.node.manager.checkpoint(self.store)

    @rule()
    def kill_recover(self):
        self.node.kill()
        self._take_over(self._open(self.node.directory))

    @rule()
    def drain_restart(self):
        self.node.manager.close(self.store)
        self._take_over(self._open(self.node.directory))

    @rule()
    def resync(self):
        """The sender's snapshot resync: the primary's image, applied to
        the standby (its contents reset first), and the journal position
        captured with it."""
        if self.standby is None:
            self.standby = self._open(self._directory())
            self.client = ReplicationClient(self.standby.store, "127.0.0.1", 0)
        image = io.BytesIO()
        write_snapshot(self.store, image)
        self.client._resync(image.getvalue())
        self.client.position = self.node.manager.writer.position
        self._judge_walk(self.standby.store)

    @precondition(lambda self: self.standby is not None)
    @rule(mode=st.sampled_from(["tail", "full"]))
    def promote(self, mode):
        """The primary dies; the standby catches up from its directory and
        serves in its place."""
        self.node.kill()
        if mode == "full":
            self.client.position = (0, 0)
        segment = os.path.join(
            self.node.directory, segment_name(self.client.position[0])
        )
        expected = "tail" if mode == "tail" and os.path.exists(segment) else "full"
        _records, taken, incidents = self.client.catch_up(self.node.directory)
        assert (taken, incidents) == (expected, [])
        standby, self.standby, self.client = self.standby, None, None
        self._take_over(standby)

    @rule(data=st.data())
    def rot(self, data):
        """Rot at rest is repaired from memory: the scrub's checkpoint
        prunes the rotten file, and recovery after a kill is clean."""
        manager = self.node.manager
        files = [
            path for _seq, path in list_segments(self.node.directory)
            if path != manager.writer.current_path
        ] + [path for _seq, path in list_checkpoints(self.node.directory)]
        if not files:
            return
        path = data.draw(st.sampled_from(files))
        flip(path, data.draw(st.integers(0, os.path.getsize(path) - 1)))
        report = manager.scrub_once(self.store)
        assert report.failures and report.repaired_by is not None
        assert not os.path.exists(path)
        self.kill_recover()


class JournalledShardedStoreMachine(JournalledStoreMachine):
    def build(self, clock):
        return sharded(clock)


_SETTINGS = settings(max_examples=20, stateful_step_count=60, deadline=None)
TestStoreRegion0 = StoreMachine.TestCase
TestStoreRegion0.settings = _SETTINGS
TestStoreDefault = DefaultRegionStoreMachine.TestCase
TestStoreDefault.settings = _SETTINGS
TestStoreSharded = ShardedStoreMachine.TestCase
TestStoreSharded.settings = _SETTINGS
TestStoreJournalled = JournalledStoreMachine.TestCase
TestStoreJournalled.settings = _SETTINGS
TestStoreJournalledSharded = JournalledShardedStoreMachine.TestCase
TestStoreJournalledSharded.settings = _SETTINGS
