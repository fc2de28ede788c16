"""The replica's side of the stream: apply, track lag, survive, promote.

A :class:`ReplicationClient` owns one upstream connection.  Every record
it receives — stream, resync image or catch-up tail — goes through its
one applier onto the ``set``/``delete`` calls recovery uses (on a
server, the store's, so flags arrive with their items; a replica with
its own ``--journal-dir`` journals everything it applies).  A full
catch-up is recovery itself, handed the store.  It tracks its lag from
the primary's heartbeats, and reconnects with jittered backoff when the
link dies.  A resync rebuilds from empty, never over live contents:
keys deleted on the primary while we were partitioned cannot survive it.

Lag and staleness are advertised, not guessed: ``pressure_level`` is

* ``2`` (shed **all** client GETs) when the link is down or silent past
  ``stale_grace`` seconds, or lag exceeds ``HARD_LAG_FACTOR`` x
  ``MAX_LAG_BYTES``;
* ``1`` (shed Z-zone-bound GETs first, the cheap-to-refill half) when
  lag exceeds ``MAX_LAG_BYTES``;
* ``0`` otherwise.

Promotion (:meth:`ReplicationClient.catch_up` + the server's ``promote``
command) is deliberately consensus-free: an operator or harness decides,
the replica optionally replays the dead primary's on-disk journal from
its applied position (fsync=always there means every acknowledged write
is present), flips to the primary role, and starts taking writes.
What damage it meets is booked; an error from the store propagates.
"""

from __future__ import annotations

import asyncio
import io
import random
import time
from typing import List, Optional, Tuple

from repro.common.errors import CacheError, JournalError, ReplicationError
from repro.common.framing import (
    OP_DELETE,
    apply_record,
    decode_payload,
    read_segment,
)
from repro.common.rng import RetryPolicy
from repro.core.snapshot import iter_cache_items, read_image
from repro.durability.journal import segment_name
from repro.durability.manager import replay_journal
from repro.replication import wire
from repro.replication.stats import ReplicationStats
from repro.replication.tailer import JournalTailer, SegmentPrunedError

#: Send an ACK at least every this many applied records.
ACK_EVERY_RECORDS = 64

#: Lag past this many bytes sheds the Z-zone-bound GETs first.
MAX_LAG_BYTES = 1 << 20

#: Lag past this many times ``MAX_LAG_BYTES`` sheds every GET, not only
#: the Z-zone-bound ones.
HARD_LAG_FACTOR = 4

#: The re-dial backoff: doubling from 50 ms to a 2 s cap, full jitter.
RECONNECT = RetryPolicy(backoff_base=0.05, backoff_cap=2.0)


class ReplicationClient:
    """Follow one primary; apply its journal stream into ``cache``."""

    def __init__(
        self,
        cache,
        host: str,
        port: int,
        stats: Optional[ReplicationStats] = None,
        *,
        stale_grace: float = 1.0,
        silence_timeout: float = 5.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        #: What records are applied to: a cache, or the server's store,
        #: so a promoted replica serves the flags its primary did.
        self.cache = cache
        self.host = host
        self.port = port
        self.stats = stats if stats is not None else ReplicationStats()
        self.stale_grace = stale_grace
        #: A half-open link (primary SIGKILLed behind a middlebox that
        #: never propagates the close) delivers no bytes and no error; a
        #: blocking read would follow it forever.  After this long with
        #: nothing received the session is aborted so ``_run`` re-dials.
        self.silence_timeout = silence_timeout
        self.rng = rng if rng is not None else random.Random()
        #: Journal position of the last applied record on the primary.
        self.position: Tuple[int, int] = (0, 0)
        self.connected = False
        self.last_contact: Optional[float] = None
        self._conn_applied = 0
        self._heartbeat: Optional[Tuple[int, int, int, int]] = None
        self._task: Optional[asyncio.Task] = None
        self._stopped = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Follow the primary from :attr:`position` (again, after a stop)."""
        self._stopped = False
        self._task = asyncio.create_task(self._run())

    def cancel(self) -> None:
        """Stop following, now: no record is applied after this returns
        (the task's next step is its ``CancelledError``; its own
        ``finally`` closes the socket)."""
        self._stopped = True
        self.connected = False
        if self._task is not None:
            self._task.cancel()

    async def stop(self) -> None:
        """:meth:`cancel`, then wait until the socket is closed."""
        self.cancel()
        if self._task is not None:
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    # -- lag / pressure --------------------------------------------------------

    def lag_bytes(self) -> int:
        """Approximate bytes of primary history not yet applied here."""
        if self._heartbeat is None:
            return 0
        sent_bytes, backlog, _seg, _off = self._heartbeat
        return max(0, sent_bytes - self._conn_applied) + backlog

    def pressure_level(self, now: Optional[float] = None) -> int:
        if now is None:
            now = time.monotonic()
        if (
            not self.connected
            or self.last_contact is None
            or now - self.last_contact > self.stale_grace
        ):
            return 2
        lag = self.lag_bytes()
        if lag > HARD_LAG_FACTOR * MAX_LAG_BYTES:
            return 2
        if lag > MAX_LAG_BYTES:
            return 1
        return 0

    # -- the stream ------------------------------------------------------------

    async def _run(self) -> None:
        attempt = 0
        while not self._stopped:
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port
                )
            except (ConnectionError, OSError):
                attempt += 1
                await asyncio.sleep(RECONNECT.delay(attempt, self.rng))
                continue
            self.stats.source_connects += 1
            applied = self._applied()
            try:
                await self._session(reader, writer)
            except (
                # A record that does not decode ends the session like a
                # frame that does not: skipping it would leave a hole.
                ReplicationError,
                JournalError,
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
            ):
                pass
            finally:
                self.connected = False
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            # Only a session that applied something proves the primary
            # healthy: one that hangs up at once backs off like a refusal.
            attempt = 1 if self._applied() > applied else attempt + 1
            await asyncio.sleep(RECONNECT.delay(attempt, self.rng))

    def _applied(self) -> int:
        return self.stats.records_applied + self.stats.snapshots_applied

    async def _session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        writer.write(
            wire.encode_frame(wire.HELLO, wire.encode_position(*self.position))
        )
        await writer.drain()
        self._conn_applied = 0
        self._heartbeat = None
        watchdog = asyncio.create_task(self._watchdog(writer))
        try:
            await self._stream(reader, writer)
        finally:
            watchdog.cancel()
            try:
                await watchdog
            except asyncio.CancelledError:
                pass

    async def _watchdog(self, writer: asyncio.StreamWriter) -> None:
        """Abort the session if the primary goes silent for too long."""
        started = time.monotonic()
        interval = max(0.05, self.silence_timeout / 4)
        while True:
            await asyncio.sleep(interval)
            last = started
            if self.last_contact is not None:
                last = max(last, self.last_contact)
            if time.monotonic() - last > self.silence_timeout:
                self.stats.silent_link_drops += 1
                transport = writer.transport
                if transport is not None:
                    transport.abort()
                return

    async def _stream(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        snapshot_buffer: Optional[bytearray] = None
        snapshot_position: Tuple[int, int] = (0, 0)
        unacked = 0
        while not self._stopped:
            frame = await wire.read_frame(reader)
            if frame is None:
                return
            # ``connected`` flips only on bytes *received* from the
            # primary: a TCP accept (or a blackholed middlebox) proves
            # nothing, and advertising health on it would let a freshly
            # partitioned replica serve a stale read during the one-RTT
            # window before the link dies again.
            self.connected = True
            self.last_contact = time.monotonic()
            frame_type, body = frame
            if frame_type == wire.RECORD:
                segment, end_offset, payload = wire.decode_record_body(body)
                self._apply(*decode_payload(payload))
                self.position = (segment, end_offset)
                self._conn_applied += len(payload)
                self.stats.records_applied += 1
                self.stats.bytes_applied += len(payload)
                unacked += 1
                if unacked >= ACK_EVERY_RECORDS:
                    self._send_ack(writer)
                    unacked = 0
            elif frame_type == wire.HEARTBEAT:
                self._heartbeat = wire.decode_heartbeat(body)
                self.stats.heartbeats_received += 1
                self._send_ack(writer)
                unacked = 0
                await writer.drain()
            elif frame_type == wire.SNAP_BEGIN:
                snapshot_buffer = bytearray()
                snapshot_position = wire.decode_position(body)
            elif frame_type == wire.SNAP_CHUNK:
                if snapshot_buffer is None:
                    raise ReplicationError("snapshot chunk outside a snapshot")
                snapshot_buffer += body
            elif frame_type == wire.SNAP_END:
                if snapshot_buffer is None:
                    raise ReplicationError("snapshot end outside a snapshot")
                self._resync(bytes(snapshot_buffer))
                snapshot_buffer = None
                self.position = snapshot_position
                self._conn_applied = 0
                self._heartbeat = None
                self.stats.snapshots_applied += 1
                self._send_ack(writer)
                unacked = 0
                await writer.drain()

    def _send_ack(self, writer: asyncio.StreamWriter) -> None:
        writer.write(wire.encode_ack(self._conn_applied, *self.position))
        self.stats.acks_sent += 1

    def _apply(self, op: int, key: bytes, value: bytes, flags: int) -> None:
        """The one applier: stream, resync, reset and a catch-up's tail.
        An error from the cache is counted (none is known), not fatal."""
        try:
            apply_record(self.cache, op, key, value, flags)
        except CacheError:
            self.stats.apply_errors += 1

    def _reset(self) -> None:
        """Delete every resident key through :meth:`_apply`, so a replica
        with its own journal journals the deletes too."""
        for key in [key for key, _value in iter_cache_items(self.cache)]:
            self._apply(OP_DELETE, key, b"", 0)

    def _resync(self, image: bytes) -> None:
        """Replace our contents with the image: verify it whole, reset,
        load.  A damaged, short or unsealed image drops the session
        (``_run`` re-dials) with our contents still the old state."""
        scan = read_image(io.BytesIO(image))
        if not scan.clean:
            raise ReplicationError(
                f"resync image refused after {scan.records} whole records: "
                f"{scan.error}"
            )
        self._reset()
        read_segment(io.BytesIO(image), self._apply)

    def catch_up(self, directory: str) -> Tuple[int, str, List[str]]:
        """Apply a dead primary's on-disk journal from our position;
        returns ``(records, mode, incidents)``.

        ``tail`` replays forward from the position and books the damage
        it stops before, if any (the records past it are lost).
        ``full``, when the position is unusable, resets and recovers the
        directory from empty, as the primary itself would have, and
        returns that recovery's incidents (a journal hole among them).
        """
        segment, offset = self.position
        if segment > 0:
            tailer = JournalTailer(directory, segment, offset)
            records = 0
            try:
                while True:
                    batch = tailer.read_batch(1024)
                    if not batch:
                        self.stats.catch_up_records += records
                        damage = tailer.damage
                        return records, "tail", [] if damage is None else [
                            f"tail stopped in {segment_name(tailer.segment)} "
                            f"at byte {tailer.offset}: {damage}"
                        ]
                    for payload, seg, end in batch:
                        self._apply(*decode_payload(payload))
                        self.position = (seg, end)
                        records += 1
            except SegmentPrunedError:
                pass
            finally:
                tailer.close()
        self._reset()
        result = replay_journal(directory, self.cache)
        records = result.checkpoint_loaded + result.replayed_records
        self.stats.catch_up_records += records
        return records, "full", result.incidents
