"""Asyncio memcached-protocol front-end over a (sharded) zExpander.

The data plane is callbacks, not coroutines: one
:class:`asyncio.BufferedProtocol` per connection serves every request
inside ``buffer_updated`` (feed the parser, dispatch each command
synchronously through the one ``_dispatch``, one ``transport.write`` per
read), so a GET costs no task, timer, stream or read-buffer allocation
on top of the event loop.

Robustness is the design driver, not protocol coverage:

* **Slow-client isolation** — a stalled peer costs one connection, never
  the event loop, and no bound is a per-request timer.  *Reads*: one
  ``call_later`` per connection; ``buffer_updated`` stamps the clock and
  the timer, when it fires, hangs up or re-arms for the remainder.
  *Writes*: ``pause_writing`` (buffer past high-water) stops the reads
  and starts a stall timer; ``resume_writing`` cancels it, expiry aborts
  the peer.  *Buffering*: replies are written early at 64 KiB and
  dispatch stops at the first event after the transport pauses (the
  rest wait, parsed, in a per-connection deque), so a peer that never
  reads holds at most high-water + 64 KiB + one command's reply.
* **Ordered replies** — every verb, ``promote`` included, is answered
  inside the one synchronous ``_dispatch``, so replies leave in request
  order by construction.
* **Bounded concurrency** — a global inflight gauge feeds the
  :class:`~repro.server.admission.AdmissionController`; past the hard
  cap nothing executes, so queue growth is bounded by construction.
* **Load shedding in N/Z order** — overloaded requests are refused with
  ``SERVER_ERROR overloaded``; Z-zone-destined GETs (Content-Filter
  pre-check) go first, protecting the cheap N-zone path.
* **Graceful drain** — SIGTERM stops accepting, finishes inflight work
  up to a deadline, writes a crash-safe snapshot, and exits 0; a
  restart warm-loads that snapshot (up to its first damaged record, so
  even a torn file yields a partially warm cache).
* **Fault-plan wiring** — a cache-level :class:`FaultPlan` armed via
  ``ZExpanderConfig(fault_plan=...)`` fires on the serving path too
  (bit-flips, codec faults, squeezes, skew), and an
  :class:`InvariantAuditor` re-verifies cache invariants every N
  commands so wire-driven chaos catches bookkeeping damage at the
  request that caused it.
* **One stats surface** — every number the server reports is a view or
  an instrument in ``server.registry``, registered by whichever
  component owns the state; the ``stats`` reply is three text keys plus
  ``registry.summary()`` under its wire names (:func:`wire_name`, the
  one rename table).  Swallowed errors land in ``incidents``, whose
  length is on that surface as ``incidents``.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro import __version__
from repro.common.errors import CacheError, ConfigurationError, JournalError
from repro.core.snapshot import load_snapshot, write_snapshot
from repro.durability import DurabilityConfig, DurabilityManager
from repro.faults.auditor import InvariantAuditor
from repro.metrics import MetricsRegistry, log_buckets
from repro.replication import (
    ReplicationClient,
    ReplicationSource,
    ReplicationStats,
)
from repro.server import protocol
from repro.server.admission import (
    AdmissionConfig,
    AdmissionController,
    ServerState,
)
from repro.server.meta import DEFAULT_META, ItemMetaStore
from repro.server.protocol import BadCommand, Command, RequestParser
from repro.zzone.zzone import FASTPATH_FIELDS, INTEGRITY_FIELDS

#: Virtual-clock step per served command in deterministic ("tick") mode —
#: matches the replay engine's default request rate of 100 k req/s.
TICK_SECONDS = 1e-5

_OVERLOADED = protocol.server_error("overloaded")
_DRAINING = protocol.server_error("draining")
_LAGGING = protocol.server_error("lagging")
_READ_ONLY = protocol.server_error("read-only replica")
PROMOTED = b"PROMOTED" + protocol.CRLF

#: Registry name -> ``stats`` wire name, where the two differ: the names
#: memcached fixed, the three the frozen ledger reads off the wire, and
#: the two Z-zone families.  Every other view crosses under its registry
#: name less ``server_`` (memcached's bare ``cmd_get``, ``get_hits``);
#: an instrument the registry owns (histograms, auditor counters) gains
#: ``metrics_``.
_WIRE_NAMES = {
    # Resident copies, not distinct keys: a key whose Z-zone copy awaits
    # a postponed removal is counted in both zones.
    "cache_item_count": "curr_items",
    "cache_used_bytes": "bytes",
    "cache_capacity_bytes": "limit_maxbytes",
    "cache_get_hits_nzone": "cache_hits_nzone",
    "cache_get_hits_zzone": "cache_hits_zzone",
    "cache_get_misses": "cache_misses",
    # A name shipped under the cache's prefix, kept for the store's count.
    "server_expirations": "cache_expirations",
    **{f"cache_zzone_{field}": f"integrity_{field}" for field in INTEGRITY_FIELDS},
    **{f"cache_zzone_{field}": f"fastpath_{field}" for field in FASTPATH_FIELDS},
}


def wire_name(name: str, owned: bool = False) -> str:
    """The ``stats`` key of one ``registry.summary()`` entry."""
    if owned:
        return "metrics_" + name
    return _WIRE_NAMES.get(name) or name.removeprefix("server_")


#: Pending replies are written early once they reach this many bytes, so
#: the transport's high-water mark gets its say inside a long pipeline.
_FLUSH_BYTES = 64 * 1024


@dataclass
class ServerConfig:
    """Everything one serving process needs to know."""

    host: str = "127.0.0.1"
    port: int = 11311
    read_timeout: float = 30.0
    write_timeout: float = 10.0
    max_value_bytes: int = protocol.DEFAULT_MAX_VALUE_BYTES
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: ``tick`` advances the cache's virtual clock a fixed step per
    #: command (deterministic); ``wall`` is left to operators who need
    #: real TTL semantics and accept nondeterminism.
    clock_mode: str = "tick"
    drain_deadline: float = 5.0
    #: The image a drain writes and a start warm-loads (None = none).
    #: A server has one persistence base: this or ``journal_dir``.
    snapshot_path: Optional[str] = None
    #: Re-verify cache invariants every N commands (0 = off).
    audit_interval: int = 0
    #: Crash-consistent durability: a directory for the write-ahead
    #: journal + checkpoints (None = volatile, the default).  On start
    #: the server recovers checkpoint + journal into the cache, then
    #: journals every acknowledged mutation.
    journal_dir: Optional[str] = None
    #: ``always`` (zero acknowledged-write loss) / ``interval`` /
    #: ``never`` — the power-loss bound; see repro.durability.journal.
    fsync: str = "interval"
    fsync_interval: float = 0.05
    journal_segment_bytes: int = 1 << 20
    #: Take an incremental checkpoint once this much journal accumulates.
    checkpoint_bytes: int = 4 << 20
    #: Background at-rest integrity scrub cadence (0 = off).
    scrub_interval: float = 30.0
    # -- replication (off by default) ------------------------------------------
    #: ``primary`` serves writes; ``replica`` applies a primary's journal
    #: stream and refuses client mutations until promoted.
    role: str = "primary"
    #: Arm the journal-shipping listener on this port (0 = ephemeral,
    #: None = no replication source).  Requires ``journal_dir``.
    repl_port: Optional[int] = None
    #: Where a replica finds its primary's replication listener.
    primary_host: str = "127.0.0.1"
    primary_port: Optional[int] = None
    #: Replica-side lag policy: past ``max_lag_bytes`` shed Z-zone-bound
    #: GETs; past four times that — or with no stream traffic for
    #: ``stale_grace`` seconds — shed every GET.
    max_lag_bytes: int = 1 << 20
    stale_grace: float = 1.0
    #: Replica-side half-open-link detection: this long with nothing
    #: received on an open stream and the replica re-dials the primary.
    repl_silence_timeout: float = 5.0

    def validate(self) -> None:
        if self.read_timeout <= 0 or self.write_timeout <= 0:
            raise ConfigurationError("timeouts must be positive")
        if self.drain_deadline < 0:
            raise ConfigurationError("drain_deadline must be >= 0")
        if self.clock_mode not in ("tick", "wall"):
            raise ConfigurationError(f"unknown clock_mode {self.clock_mode!r}")
        if self.audit_interval < 0:
            raise ConfigurationError("audit_interval must be >= 0")
        if self.journal_dir is not None:
            if self.snapshot_path is not None:
                raise ConfigurationError(
                    "snapshot_path and journal_dir are two persistence bases "
                    "(the journal's final checkpoint is the drain image)"
                )
            self.durability_config().validate()
        if self.role not in ("primary", "replica"):
            raise ConfigurationError(f"unknown role {self.role!r}")
        if self.role == "replica" and self.primary_port is None:
            raise ConfigurationError("replica role requires primary_port")
        if self.repl_port is not None and self.journal_dir is None:
            raise ConfigurationError("repl_port requires journal_dir (the stream IS the journal)")
        if self.max_lag_bytes <= 0 or self.stale_grace <= 0:
            raise ConfigurationError("max_lag_bytes and stale_grace must be positive")
        if self.repl_silence_timeout <= 0:
            raise ConfigurationError("repl_silence_timeout must be positive")
        self.admission.validate()

    def durability_config(self) -> DurabilityConfig:
        assert self.journal_dir is not None
        return DurabilityConfig(
            directory=self.journal_dir,
            fsync=self.fsync,
            fsync_interval=self.fsync_interval,
            segment_bytes=self.journal_segment_bytes,
            checkpoint_bytes=self.checkpoint_bytes,
            scrub_interval=self.scrub_interval,
        )


@dataclass
class ServerStats:
    """Serving-layer counters (cache counters live on the cache)."""

    connections_total: int = 0
    connections_current: int = 0
    commands: int = 0
    cmd_get: int = 0
    cmd_set: int = 0
    cmd_cas: int = 0
    cmd_delete: int = 0
    get_hits: int = 0
    get_misses: int = 0
    cas_hits: int = 0
    cas_badval: int = 0
    cas_misses: int = 0
    #: Keys deleted because their TTL ran out (on a read or by the purge).
    expirations: int = 0
    #: Stale flags/CAS entries dropped by the store's periodic prune
    #: (items the cache evicted without telling the store).
    meta_pruned: int = 0
    read_timeouts: int = 0
    #: Peers aborted because they stopped reading their replies.
    write_timeouts: int = 0
    peer_resets: int = 0
    protocol_errors: int = 0
    oversized_rejects: int = 0
    drained_commands: int = 0
    invariant_failures: int = 0
    snapshot_loaded: int = 0
    snapshot_skipped: int = 0
    snapshot_written: int = 0
    #: 1 when the warm-start snapshot had a damaged tail (lossy restart).
    snapshot_truncated: int = 0


class _Connection(asyncio.BufferedProtocol):
    """One client connection, served inside its transport callbacks."""

    def __init__(self, server: "CacheServer") -> None:
        self.server = server
        self.parser = RequestParser(server.config.max_value_bytes)
        #: The transport reads into this one buffer for the connection's
        #: life.  A plain Protocol gets a fresh 256 KiB ``bytes`` per
        #: read, which glibc may serve by mmap/munmap — two page faults
        #: per request, depending on the heap's layout at that moment.
        self.read_view = memoryview(bytearray(_FLUSH_BYTES))
        #: Parsed events not yet dispatched.  Outlives a callback only
        #: while reads are paused (write stall), so a held connection
        #: buffers at most the one read it was parsing.
        self.parked: Deque[protocol.Event] = deque()
        self.write_paused = False
        self.stall_timer: Optional[asyncio.TimerHandle] = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.loop = asyncio.get_running_loop()
        self.server.stats.connections_total += 1
        self.server.stats.connections_current += 1
        self.server._connections.add(self)
        self.last_read = self.loop.time()
        self.idle_timer = self.loop.call_later(
            self.server.config.read_timeout, self._idle_check
        )

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if isinstance(exc, (ConnectionResetError, BrokenPipeError)):
            self.server.stats.peer_resets += 1
        self.server.stats.connections_current -= 1
        self.server._connections.discard(self)
        self.parked.clear()
        self.idle_timer.cancel()
        if self.stall_timer is not None:
            self.stall_timer.cancel()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.read_view

    def buffer_updated(self, nbytes: int) -> None:
        self.last_read = self.loop.time()
        # The parser copies what it is fed, so the buffer is free again.
        self.parser.feed(self.read_view[:nbytes])
        self.parked.extend(self.parser.events())
        if not self.write_paused:
            self._pump()

    def eof_received(self) -> None:
        # A half-received command (e.g. an abrupt mid-set disconnect)
        # dies in the parser buffer: it never reached the cache.
        # Returning None closes the transport, flushing replies first.
        if self.parser.mid_command:
            self.server.stats.peer_resets += 1

    # -- read timeout: one lazily re-armed timer, no per-request work ----------

    def _idle_check(self) -> None:
        timeout = self.server.config.read_timeout
        # While reads are paused the silence is ours, not the peer's.
        idle = 0.0 if self.write_paused else self.loop.time() - self.last_read
        if idle < timeout:
            self.idle_timer = self.loop.call_later(timeout - idle, self._idle_check)
        elif not self.transport.is_closing():
            self.server.stats.read_timeouts += 1
            self.transport.close()

    # -- write timeout: transport flow control + a stall timer -----------------

    def pause_writing(self) -> None:
        # The peer is not reading its replies: stop reading its requests
        # and give it ``write_timeout`` to drain below low-water.
        self.write_paused = True
        self.transport.pause_reading()
        self.stall_timer = self.loop.call_later(
            self.server.config.write_timeout, self._stalled
        )

    def resume_writing(self) -> None:
        """The peer reads again: serve what was parked, then read on."""
        self.write_paused = False
        self.stall_timer.cancel()
        self.stall_timer = None
        if self.transport.is_closing():
            return
        self._pump()
        if not self.write_paused:
            self.last_read = self.loop.time()
            self.transport.resume_reading()

    def _stalled(self) -> None:
        self.server.stats.write_timeouts += 1
        self.transport.abort()

    # -- dispatch --------------------------------------------------------------

    def _pump(self) -> None:
        """Dispatch parked events in order, one write per read, until
        the queue is empty or the peer stops reading its replies."""
        server = self.server
        parked = self.parked
        out: List[bytes] = []
        counted = pending = 0
        alive = True
        while parked and alive and not self.write_paused:
            alive = server._dispatch(parked.popleft(), out)
            pending += sum(map(len, out[counted:]))
            counted = len(out)
            if pending >= _FLUSH_BYTES:
                self.transport.write(b"".join(out))  # may pause_writing()
                out.clear()
                counted = pending = 0
        if out:
            self.transport.write(out[0] if len(out) == 1 else b"".join(out))
        if not alive:
            # quit or a fatal protocol error: the rest of the pipeline
            # is discarded; close() still flushes the replies so far.
            parked.clear()
            self.transport.close()


class CacheServer:
    """One asyncio serving process over a ZExpander/ShardedZExpander."""

    def __init__(
        self,
        cache,
        config: Optional[ServerConfig] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self.config.validate()
        self.cache = cache
        # What a served cache may lack (the ledger's dict-backed shell
        # has none of them), resolved once: nothing rebinds these after
        # construction.
        self._routes_to_zzone, self._shard_for, bind_cache = (
            getattr(cache, name, None)
            for name in ("routes_to_zzone", "shard_for", "bind_metrics")
        )
        # Injectors come from ``ZExpanderConfig.fault_plan`` when the
        # cache is built, on every shard or on none; a server without
        # them pays nothing per command.
        armed = any(
            getattr(shard, "fault_injector", None)
            for shard in getattr(cache, "shards", (cache,))
        )
        self._fault_hook = self._fire_faults if armed else None
        #: The cache with the client flags, CAS token and deadline of the
        #: keys that have them beside it: every write into the cache and
        #: every walk of its contents goes through it.  Flags are
        #: persisted through cache images and the journal (one record
        #: format); CAS tokens restart from 1 on every boot, as real
        #: memcached's do.
        self.store = ItemMetaStore(cache)
        #: Moves the store's clock (the cache's, when it has one) once
        #: per dispatched command: a fixed step in ``tick`` mode, as far
        #: as ``time.monotonic`` moved in ``wall`` mode (nothing else
        #: ever advances a VirtualClock).
        clock = self.store.clock
        if self.config.clock_mode == "tick":
            self._tick = partial(clock.advance, TICK_SECONDS)
        else:
            origin = time.monotonic() - clock.now()
            self._tick = lambda: clock.set(time.monotonic() - origin)
        # Admission meters *real* arrival rates (wall clock) regardless of
        # the cache's clock_mode; deterministic runs inject a controller
        # driven by a TickClock instead.
        if admission is not None:
            self.admission = admission
        else:
            self.admission = AdmissionController(self.config.admission)
        self.stats = ServerStats()
        self.registry = MetricsRegistry()
        self._latency_hist = self.registry.histogram(
            "server_request_seconds",
            "execute latency of admitted commands",
            timing=True,
        )
        _payload_bounds = log_buckets(1.0, float(1 << 20), per_decade=3)
        self._get_bytes_hist = self.registry.histogram(
            "server_get_value_bytes",
            "value sizes returned by GET hits",
            bounds=_payload_bounds,
        )
        self._set_bytes_hist = self.registry.histogram(
            "server_set_value_bytes",
            "value sizes accepted by SET",
            bounds=_payload_bounds,
        )
        self.registry.mount("server", self.stats)
        self.admission.bind_metrics(self.registry)
        if bind_cache is not None:
            bind_cache(self.registry)
        self.auditor: Optional[InvariantAuditor] = (
            InvariantAuditor(
                cache, self.config.audit_interval, registry=self.registry
            )
            if self.config.audit_interval
            else None
        )
        #: Write-ahead journal + checkpoints; armed in start() when
        #: ``config.journal_dir`` is set.
        self.durability: Optional[DurabilityManager] = None
        #: Journal-shipping replication; counters exist (zero-valued)
        #: even when replication is off so the stats wire is stable.
        self.replication_stats = ReplicationStats()
        self.replication_stats.bind_metrics(
            self.registry, lambda: self.repl_client, lambda: self.repl_source
        )
        self.repl_source: Optional[ReplicationSource] = None
        self.repl_client: Optional[ReplicationClient] = None
        self._housekeeping: Optional[asyncio.Task] = None
        self._inflight = 0
        self._draining = False
        self._stopped = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._port: Optional[int] = None
        self._connections: Set[_Connection] = set()
        self._exit_code = 0
        #: Messages for post-mortems: invariant failures, snapshot issues.
        self.incidents: List[str] = []
        # The server's own live values: with these, every number a
        # ``stats`` reply carries is read from the registry.
        view = self.registry.view
        view("server_inflight", lambda: self._inflight, "requests executing now")
        view("server_draining", lambda: int(self._draining), "1 once drain began")
        view("server_incidents", lambda: len(self.incidents), "post-mortem messages")
        view(
            "server_meta_items", lambda: len(self.store),
            "keys with flags, a deadline or a CAS token in the store",
        )
        view("server_meta_bytes", lambda: self.store.memory_bytes, "sidecar bytes")

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``); stable across drain."""
        assert self._port is not None, "server not started"
        return self._port

    async def start(self) -> None:
        """Rebuild from the one persistence base, if any, then bind and
        accept.

        The base is the journal directory (checkpoint + journal, which is
        attached only afterwards so recovery is never re-journaled) or
        the ``--snapshot`` image, never both: one laid over the other
        would bring back what the newer one had deleted.
        """
        if self.config.journal_dir is not None:
            self._recover_durable()
        elif self.config.snapshot_path is not None:
            self._warm_restart(self.config.snapshot_path)
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.config.host, self.config.port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        if self.durability is not None:
            self._housekeeping = asyncio.get_running_loop().create_task(
                self._durability_housekeeping()
            )
        if self.config.repl_port is not None:
            assert self.durability is not None
            self.repl_source = ReplicationSource(
                self.store, self.durability, self.replication_stats
            )
            await self.repl_source.start(self.config.host, self.config.repl_port)
        if self.config.role == "replica":
            self.repl_client = ReplicationClient(
                self.store,
                self.config.primary_host,
                self.config.primary_port,
                self.replication_stats,
                max_lag_bytes=self.config.max_lag_bytes,
                stale_grace=self.config.stale_grace,
                silence_timeout=self.config.repl_silence_timeout,
            )
            self.repl_client.start()

    def _warm_restart(self, path: str) -> None:
        try:
            image = load_snapshot(self.store, path)
            failure = None if image.valid_bytes else image.error
        except FileNotFoundError:
            return
        except OSError as exc:
            failure = str(exc)
        if failure is not None:
            # Not an image, or unreadable: a bad snapshot must not block startup.
            self.incidents.append(f"snapshot load failed: {failure}")
            return
        self.stats.snapshot_loaded = image.records
        if not image.clean:
            self.stats.snapshot_skipped = 1
            self.stats.snapshot_truncated = 1
            self.incidents.append(f"snapshot tail skipped: {image.error}")

    def _recover_durable(self) -> None:
        self.durability = DurabilityManager(self.config.durability_config())
        recovery = self.durability.recover_into(self.store)
        if recovery.history_gap is not None:
            # A hole in history no quarantine pass could have left:
            # serving over it could resurrect deletes and hide acked
            # writes.  Refuse loudly; the operator decides what to do.
            self.durability.writer.close()
            raise JournalError(
                f"refusing to serve {self.config.journal_dir}: "
                f"{recovery.history_gap}"
            )
        self.durability.attach_to(self.cache)
        self.registry.mount("durability", self.durability.stats)
        for incident in recovery.incidents:
            self.incidents.append(f"recovery: {incident}")

    async def _durability_housekeeping(self) -> None:
        """Idle-period fsyncs plus the periodic at-rest integrity scrub."""
        assert self.durability is not None
        config = self.durability.config
        interval = max(config.fsync_interval, 0.01)
        next_scrub = (
            time.monotonic() + config.scrub_interval
            if config.scrub_interval > 0
            else None
        )
        while not self._stopped.is_set():
            await asyncio.sleep(interval)
            writer = self.durability.writer
            if writer is not None and not writer.closed:
                writer.maybe_sync()
            if next_scrub is not None and time.monotonic() >= next_scrub:
                next_scrub = time.monotonic() + config.scrub_interval
                # A failed repair leaves the rot for the next pass.
                report = self._checkpoint(self.durability.scrub_once)
                self.incidents += [
                    f"scrub: {failure}; repaired by checkpoint {report.repaired_by}"
                    for failure in (report.failures if report else ())
                ]

    async def run(self) -> int:
        """Serve until drained; returns the process exit code."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()
        return self._exit_code

    def begin_drain(self) -> None:
        """SIGTERM entry point: stop accepting, schedule the drain."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        asyncio.get_running_loop().create_task(self._finish_drain())

    async def _finish_drain(self) -> None:
        deadline = self.config.drain_deadline
        try:
            await asyncio.wait_for(self._inflight_zero(), deadline)
        except (asyncio.TimeoutError, TimeoutError):
            self.incidents.append(
                f"drain deadline ({deadline}s) expired with "
                f"{self._inflight} requests inflight"
            )
        if self.repl_client is not None:
            await self.repl_client.stop()
        if self.repl_source is not None:
            await self.repl_source.close()
        if self.durability is not None:
            if self._housekeeping is not None:
                self._housekeeping.cancel()
            try:
                # Final checkpoint, the drain image: the next start
                # recovers from it alone, with an empty journal to replay.
                self.durability.close(self.store)
            except Exception as exc:  # the drain must reach its exit code
                self.incidents.append(f"final checkpoint failed: {exc}")
                self._exit_code = 1
        elif self.config.snapshot_path is not None:
            try:
                self.stats.snapshot_written = write_snapshot(
                    self.store, self.config.snapshot_path
                )
            except Exception as exc:  # likewise
                self.incidents.append(f"snapshot write failed: {exc}")
                self._exit_code = 1
        if self.stats.invariant_failures:
            self._exit_code = 1
        for connection in list(self._connections):
            connection.transport.close()
        self._stopped.set()

    async def _inflight_zero(self) -> None:
        while self._inflight > 0:
            await asyncio.sleep(0.01)

    # -- dispatch --------------------------------------------------------------

    def _count_command(self) -> None:
        self.stats.commands += 1
        if self.auditor is not None:
            try:
                self.auditor.on_request(self.stats.commands)
            except Exception as exc:  # whatever the audit tripped over
                self.stats.invariant_failures += 1
                self.incidents.append(
                    f"invariant check failed at command "
                    f"{self.stats.commands}: {exc}"
                )

    def _maybe_checkpoint(self) -> None:
        if self.durability is not None and self.durability.should_checkpoint():
            self._checkpoint(self.durability.checkpoint)

    def _checkpoint(self, take):
        """``take(self.store)``, which writes a checkpoint; a failure is
        an incident, not the caller's (a request or the housekeeping)."""
        try:
            return take(self.store)
        except Exception as exc:
            self.incidents.append(f"checkpoint failed: {exc}")

    def _dispatch(self, event: protocol.Event, out: List[bytes]) -> bool:
        """Execute one event, appending its reply (if any) to ``out``;
        False ends the connection."""
        if isinstance(event, BadCommand):
            self.stats.protocol_errors += 1
            if b"too large" in event.reply:
                self.stats.oversized_rejects += 1
            out.append(event.reply)
            return not event.fatal
        command: Command = event
        if command.name == "quit":
            return False
        self._count_command()
        if self._draining and command.name not in ("stats", "version"):
            self.stats.drained_commands += 1
            if not command.noreply:
                out.append(_DRAINING)
            return True
        if command.name == "version":
            out.append(b"VERSION repro-zx/" + __version__.encode() + protocol.CRLF)
            return True
        if command.name == "stats":
            out.append(protocol.encode_stats(self.stats_dict()))
            return True
        if command.name == "promote":
            out.append(self._promote(command))
            return True
        if self.config.role == "replica" and self._replica_gate(command, out):
            return True
        if not self.admission.admit(
            zzone_bound=lambda: self._zzone_bound(command),
            inflight=self._inflight,
        ):
            if not command.noreply:
                out.append(_OVERLOADED)
            return True
        self._inflight += 1
        try:
            self._tick()
            started = time.perf_counter()
            if self.store.due:
                self._expire_due(command)
            reply = self._execute(command)
            self._latency_hist.observe(time.perf_counter() - started)
            if self._fault_hook is not None:
                self._fault_hook(command)
        finally:
            self._inflight -= 1
        self._maybe_checkpoint()
        # Evictions never tell the store: now and then it walks off the
        # entries of departed keys (bounded work per pass).
        if self.stats.commands % 4096 == 0:
            self.stats.meta_pruned += self.store.prune()
        if reply and not command.noreply:
            out.append(reply)
        return True

    # -- replica policy --------------------------------------------------------

    def _replica_gate(self, command: Command, out: List[bytes]) -> bool:
        """Replica-role refusals; True when the command was answered here.

        Writes are refused outright (the stream is the only writer), and
        reads are shed in Z-zone-first order once lag exceeds the
        advertised bound — serving them could hand out bytes staler than
        the deployment promised.
        """
        if command.name in ("set", "cas", "delete"):
            self.replication_stats.read_only_rejects += 1
            if not command.noreply:
                out.append(_READ_ONLY)
            return True
        if command.name in ("get", "gets") and self.repl_client is not None:
            level = self.repl_client.pressure_level()
            if level >= 2 or (level == 1 and self._zzone_bound(command)):
                self.replication_stats.lagging_rejects += 1
                self.admission.note_lag_shed()
                if not command.noreply:
                    out.append(_LAGGING)
                return True
        return False

    def _promote(self, command: Command) -> bytes:
        """The consensus-free failover hook: replica -> primary, now;
        returns the reply.

        With a catch-up directory (the dead primary's journal on shared
        or local disk) the replica first replays everything past its
        applied position — under fsync=always over there, that is every
        acknowledged write — so promotion loses nothing, and what its
        recovery found (a journal hole included) lands in ``incidents``.
        Without one, loss is bounded by the replication lag at the
        moment of death.
        """
        if self.config.role != "replica":
            return protocol.server_error("not a replica")
        catch_up_dir: Optional[str] = None
        if command.value:
            catch_up_dir = command.value.decode("utf-8", "replace")
            if not os.path.isdir(catch_up_dir):
                return protocol.server_error("catch-up dir not found")
        client = self.repl_client
        self.repl_client = None
        client.cancel()
        caught, mode = 0, "none"
        if catch_up_dir is not None:
            try:
                caught, mode, incidents = client.catch_up(catch_up_dir)
            except (CacheError, OSError) as exc:
                # Promote regardless: serve with loss.
                self.incidents.append(f"promotion catch-up failed: {exc}")
            else:
                self.incidents += [f"promotion catch-up: {i}" for i in incidents]
        self.config.role = "primary"
        self.replication_stats.promotions += 1
        self.incidents.append(
            f"promoted to primary (catch-up {mode}: {caught} records)"
        )
        return PROMOTED

    # -- command execution -----------------------------------------------------

    def _zzone_bound(self, command: Command) -> bool:
        """Is this command Z-zone-destined work (sheddable first)?

        Only GETs ever are: SETs land in the N-zone and DELETEs must not
        be dropped preferentially (they carry correctness).  A multi-GET
        counts as Z-bound only when *every* key routes to the Z-zone, so
        a request with any hot key keeps N-zone latency.
        """
        routes = self._routes_to_zzone
        if routes is None or command.name not in ("get", "gets"):
            return False
        return all(routes(key) for key in command.keys)

    def _expire_due(self, command: Command) -> None:
        """The store's purge, plus the lazy check of the keys a read is
        about to ask the cache for."""
        reads = command.name in ("get", "gets", "cas")
        self.stats.expirations += self.store.expire(
            command.keys if reads else ()
        )

    def _resolve_ttl(self, exptime: int) -> Tuple[Optional[float], bool]:
        """memcached exptime -> (relative ttl seconds, already_expired).

        ``0`` means no expiry; values up to 30 days are relative TTLs;
        anything larger is an absolute Unix timestamp converted against
        the server's wall clock (the one nondeterministic input — the
        deterministic harnesses only ever send relative TTLs).  An
        absolute time already in the past stores-and-expires: the caller
        replies STORED but the item is gone, exactly as memcached does.
        """
        if exptime <= 0:
            return None, False
        if exptime > protocol.EXPTIME_ABSOLUTE_THRESHOLD:
            ttl = float(exptime) - time.time()
            if ttl <= 0:
                return None, True
            return ttl, False
        return float(exptime), False

    def _store(self, command: Command) -> bytes:
        """The shared tail of ``set`` and a token-matched ``cas``."""
        key = command.keys[0]
        self._set_bytes_hist.observe(len(command.value))
        ttl, expired = self._resolve_ttl(command.exptime)
        if expired:
            # Stored but already expired (absolute exptime in the past):
            # acknowledge the write, leave nothing to read.  The delete
            # is journaled, so recovery cannot resurrect an older value.
            self.store.delete(key)
            return protocol.STORED
        try:
            self.store.set(key, command.value, ttl=ttl, flags=command.flags)
        except (CacheError, OSError) as exc:
            # What ``set`` can raise is the journal's: closed or failing
            # (the cache itself refuses no item).  Anything else is a
            # bug and ends the connection.
            self.incidents.append(f"{command.name} failed: {exc!r}")
            return protocol.server_error(
                f"{command.name} failed: {type(exc).__name__}"
            )
        return protocol.STORED

    def _render_get(
        self, command: Command, values: List[Optional[bytes]]
    ) -> bytes:
        """Per-key hit/miss accounting + VALUE frames for one get/gets.

        ``values[i]`` is the cache's answer for ``command.keys[i]``
        (memcached semantics: hits and misses are counted per *key*, not
        per command — a ``get a b c`` with one hit is 1 get_hits +
        2 get_misses).
        """
        chunks = []
        with_cas = command.name == "gets"
        entries = self.store.entries
        for key, value in zip(command.keys, values):
            if value is None:
                self.stats.get_misses += 1
                # The cache evicts without telling the store; drop the
                # stale entry when the miss shows.
                entries.pop(key, None)
                continue
            self.stats.get_hits += 1
            self._get_bytes_hist.observe(len(value))
            if with_cas:
                flags, cas = self.store.gets(key)
            else:
                flags, cas = entries.get(key, DEFAULT_META)[0], None
            chunks.append(protocol.encode_value(key, value, flags=flags, cas=cas))
        chunks.append(protocol.END)
        return b"".join(chunks)

    def _execute(self, command: Command) -> bytes:
        if command.name in ("get", "gets"):
            self.stats.cmd_get += 1
            keys = command.keys
            if len(keys) > 1:
                # One batch shares Z-zone block decodes across the keys;
                # a single key has nothing to share.
                return self._render_get(command, self.cache.get_many(keys))
            return self._render_get(command, [self.cache.get(keys[0])])
        if command.name == "set":
            self.stats.cmd_set += 1
            return self._store(command)
        if command.name == "cas":
            self.stats.cmd_cas += 1
            matched = self.store.cas(command.keys[0], command.cas_token)
            if matched is None:
                self.stats.cas_misses += 1
                return protocol.NOT_FOUND
            if not matched:
                self.stats.cas_badval += 1
                return protocol.EXISTS
            reply = self._store(command)
            if reply == protocol.STORED:
                self.stats.cas_hits += 1
            return reply
        if command.name == "delete":
            self.stats.cmd_delete += 1
            found = self.store.delete(command.keys[0])
            return protocol.DELETED if found else protocol.NOT_FOUND
        raise AssertionError(f"unroutable command {command.name!r}")

    def _fire_faults(self, command: Command) -> None:
        """Fire control-plane fault sites (squeeze/skew) on the serving path."""
        shard_for = self._shard_for
        target = shard_for(command.keys[0]) if shard_for else self.cache
        target.fault_injector.on_request(
            self.stats.commands, clock=target.clock, cache=target
        )

    # -- introspection ---------------------------------------------------------

    def stats_dict(self, include_timing: bool = True) -> Dict[str, object]:
        """The ``stats`` command's payload: three text keys, then the
        whole registry under its wire names (:func:`wire_name`)."""
        out: Dict[str, object] = {
            "version": __version__,
            "state": self.admission.state.value,
            "replication_role": self.config.role,
        }
        is_view = self.registry.is_view
        for name, value in self.registry.summary(include_timing).items():
            out[wire_name(name, owned=not is_view(name))] = value
        return out

    @property
    def healthy(self) -> bool:
        return self.admission.state is ServerState.HEALTHY and not self._draining
