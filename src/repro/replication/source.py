"""The primary's replication listener: journal shipping with backpressure.

One :class:`ReplicationSource` serves any number of replicas.  Each
replica connection moves through three sending modes, cheapest first:

* **live** — the journal writer's append listener feeds a *bounded*
  in-memory queue; records go out without touching disk again.
* **file tail** — the queue overflowed (or the replica just connected
  behind the tail): re-read the on-disk journal from the replica's
  position via :class:`~repro.replication.tailer.JournalTailer`.  The
  journal itself is the retransmission buffer, bounded by checkpoint
  pruning — the sender never buffers more than ``queue_bytes`` in RAM.
* **snapshot resync** — pruning passed the replica's position (or its
  HELLO position was bogus): stream the current cache image (the same
  bytes a PR 6 checkpoint would hold) and resume tailing from the
  position captured atomically with the image.

Backpressure is explicit at every hop: socket writes must drain within
``write_timeout`` or the replica is dropped (it reconnects and resumes
from its position — usually straight into file-tail mode), and the live
queue never exceeds ``queue_bytes``.
"""

from __future__ import annotations

import asyncio
import io
import os
from collections import deque
from typing import Deque, Optional, Set, Tuple

from repro.common.errors import JournalError, ReplicationError
from repro.core.snapshot import write_snapshot
from repro.durability.journal import SEGMENT_MAGIC, list_segments, segment_name
from repro.durability.manager import DurabilityManager
from repro.replication import wire
from repro.replication.stats import ReplicationStats
from repro.replication.tailer import JournalTailer, SegmentPrunedError


class _ReplicaSession:
    """Per-connection send state; owned by the sender task."""

    __slots__ = (
        "live",
        "queue",
        "queue_bytes",
        "sent_bytes",
        "acked_bytes",
        "sent_pos",
        "acked_pos",
        "closed",
        "event",
    )

    def __init__(self) -> None:
        self.live = False
        self.queue: Deque[Tuple[bytes, int, int]] = deque()
        self.queue_bytes = 0
        self.sent_bytes = 0
        self.acked_bytes = 0
        self.sent_pos: Tuple[int, int] = (0, 0)
        self.acked_pos: Tuple[int, int] = (0, 0)
        self.closed = False
        self.event = asyncio.Event()

    def reset_stream_counters(self) -> None:
        """Both sides restart byte accounting at a snapshot boundary."""
        self.sent_bytes = 0
        self.acked_bytes = 0

    def drop_live(self) -> None:
        self.live = False
        self.queue.clear()
        self.queue_bytes = 0

    @property
    def lag_bytes(self) -> int:
        return max(0, self.sent_bytes - self.acked_bytes) + self.queue_bytes


class ReplicationSource:
    """Stream the journal (live tail + history + resync images) to replicas."""

    def __init__(
        self,
        cache,
        manager: DurabilityManager,
        stats: Optional[ReplicationStats] = None,
        *,
        heartbeat_interval: float = 0.25,
        write_timeout: float = 5.0,
        queue_bytes: int = 1 << 20,
        hello_timeout: float = 10.0,
        flush_interval: float = 0.005,
        flush_bytes: int = 256 * 1024,
    ) -> None:
        assert manager.writer is not None, "recover_into must run first"
        self.cache = cache
        self.manager = manager
        self.stats = stats if stats is not None else ReplicationStats()
        self.heartbeat_interval = heartbeat_interval
        self.write_timeout = write_timeout
        self.queue_bytes = queue_bytes
        self.hello_timeout = hello_timeout
        #: Live records coalesce for up to this long before one socket
        #: write ships them all.  Waking the sender (and paying a write
        #: + drain cycle) per append would tax every SET ack on the
        #: serving path; a bounded flush tick makes the primary's
        #: streaming cost per-batch instead of per-record, at the price
        #: of ~flush_interval of extra replica lag.
        self.flush_interval = flush_interval
        #: ...except a burst this large flushes immediately.
        self.flush_bytes = flush_bytes
        self._sessions: Set[_ReplicaSession] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self, host: str, port: int) -> int:
        self._server = await asyncio.start_server(
            self._handle_replica, host=host, port=port
        )
        self.manager.writer.add_append_listener(self._on_append)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        if self.manager.writer is not None:
            self.manager.writer.remove_append_listener(self._on_append)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for session in list(self._sessions):
            session.closed = True
            session.event.set()

    @property
    def replicas_connected(self) -> int:
        return len(self._sessions)

    @property
    def max_replica_lag_bytes(self) -> int:
        return max((s.lag_bytes for s in self._sessions), default=0)

    # -- live feed -------------------------------------------------------------

    def _on_append(self, segment: int, end_offset: int, payload: bytes) -> None:
        for session in self._sessions:
            if not session.live:
                continue
            session.queue.append((payload, segment, end_offset))
            session.queue_bytes += len(payload)
            if session.queue_bytes > self.queue_bytes:
                session.drop_live()
                self.stats.live_queue_overflows += 1
                session.event.set()
            elif session.queue_bytes >= self.flush_bytes:
                # A burst worth a socket write right now; smaller dribs
                # ride the sender's flush tick so the serving path never
                # pays a per-record sender wakeup.
                session.event.set()

    # -- per-replica sender ----------------------------------------------------

    async def _handle_replica(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = _ReplicaSession()
        ack_task: Optional[asyncio.Task] = None
        try:
            frame = await asyncio.wait_for(
                wire.read_frame(reader), self.hello_timeout
            )
            if frame is None or frame[0] != wire.HELLO:
                return
            segment, offset = wire.decode_position(frame[1])
            self.stats.replica_connects += 1
            self._sessions.add(session)
            ack_task = asyncio.create_task(self._ack_loop(reader, session))
            if not self._position_on_disk(segment, offset):
                segment, offset = await self._send_snapshot(writer, session)
            tailer = JournalTailer(
                self.manager.config.directory, segment, offset
            )
            session.sent_pos = tailer.position
            await self._send_loop(writer, session, tailer)
        except (
            asyncio.TimeoutError,
            ConnectionError,
            OSError,
            asyncio.IncompleteReadError,
        ):
            pass
        except (ReplicationError, JournalError):
            # A malformed HELLO or frame, or a journal the tailer cannot
            # follow: drop this replica's session, keep serving.
            pass
        finally:
            self._sessions.discard(session)
            session.closed = True
            if ack_task is not None:
                ack_task.cancel()
                try:
                    await ack_task
                except (asyncio.CancelledError, Exception):
                    pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _position_on_disk(self, segment: int, offset: int) -> bool:
        """Can a tailer resume from (segment, offset) without a hole?"""
        if segment == 0:
            return False
        path = os.path.join(
            self.manager.config.directory, segment_name(segment)
        )
        try:
            size = os.path.getsize(path)
        except OSError:
            return False
        return len(SEGMENT_MAGIC) <= max(offset, len(SEGMENT_MAGIC)) <= size

    async def _drain(self, writer: asyncio.StreamWriter) -> None:
        # The common case on a healthy link: the transport already
        # flushed everything in write(), so drain() would not suspend —
        # skip the wait_for scaffolding (it costs a full task
        # schedule/wake cycle) and keep the timeout for real backpressure.
        transport = writer.transport
        if transport is not None and transport.get_write_buffer_size() == 0:
            return
        await asyncio.wait_for(writer.drain(), self.write_timeout)

    async def _send_snapshot(
        self, writer: asyncio.StreamWriter, session: _ReplicaSession
    ) -> Tuple[int, int]:
        """Stream the cache image; returns the position it covers up to.

        The position capture and the image build happen with no await
        point between them, so the image is exactly the state at that
        journal position (the event loop cannot interleave a mutation).
        """
        session.drop_live()
        position = self.manager.writer.position
        buffer = io.BytesIO()
        # The manager's meta sidecar (when the server wired one) rides
        # along as a v2 image, so a resync restores client flags too.
        count = write_snapshot(self.cache, buffer, meta=self.manager.meta)
        image = buffer.getvalue()
        session.reset_stream_counters()
        writer.write(
            wire.encode_frame(
                wire.SNAP_BEGIN, wire.encode_position(*position)
            )
        )
        for start in range(0, len(image), wire.SNAPSHOT_CHUNK_BYTES):
            chunk = image[start : start + wire.SNAPSHOT_CHUNK_BYTES]
            writer.write(wire.encode_frame(wire.SNAP_CHUNK, chunk))
            await self._drain(writer)
        writer.write(wire.encode_snap_end(count))
        await self._drain(writer)
        self.stats.snapshots_sent += 1
        return position

    async def _send_loop(
        self,
        writer: asyncio.StreamWriter,
        session: _ReplicaSession,
        tailer: JournalTailer,
    ) -> None:
        loop = asyncio.get_running_loop()
        last_heartbeat = 0.0
        while not session.closed:
            now = loop.time()
            if now - last_heartbeat >= self.heartbeat_interval:
                backlog = (
                    session.queue_bytes
                    if session.live
                    else self._backlog_on_disk(session.sent_pos)
                )
                writer.write(
                    wire.encode_heartbeat(
                        session.sent_bytes, backlog, *session.sent_pos
                    )
                )
                await self._drain(writer)
                self.stats.heartbeats_sent += 1
                last_heartbeat = now

            if session.live:
                if session.queue:
                    sent = bytearray()
                    while session.queue and len(sent) < 1 << 20:
                        payload, seg, end = session.queue.popleft()
                        session.queue_bytes -= len(payload)
                        sent += wire.encode_record_frame(seg, end, payload)
                        session.sent_bytes += len(payload)
                        session.sent_pos = (seg, end)
                        self.stats.records_sent += 1
                        self.stats.bytes_sent += len(payload)
                    try:
                        writer.write(bytes(sent))
                        await self._drain(writer)
                    except asyncio.TimeoutError:
                        self.stats.slow_replica_drops += 1
                        return
                    continue
                # The flush tick: sleep at most flush_interval, so any
                # records that arrive while we sleep ship in one batch on
                # the next pass.  Appends do not wake us (see _on_append)
                # unless they pile up past flush_bytes.
                timeout = max(
                    0.001,
                    min(
                        self.flush_interval,
                        self.heartbeat_interval
                        - (loop.time() - last_heartbeat),
                    ),
                )
                session.event.clear()
                try:
                    await asyncio.wait_for(session.event.wait(), timeout)
                except asyncio.TimeoutError:
                    pass
                continue

            # File-tail mode.
            try:
                batch = tailer.read_batch()
            except SegmentPrunedError:
                segment, offset = await self._send_snapshot(writer, session)
                tailer.close()
                tailer = JournalTailer(
                    self.manager.config.directory, segment, offset
                )
                session.sent_pos = tailer.position
                continue
            if batch:
                sent = bytearray()
                for _op, _key, _value, payload, seg, end in batch:
                    sent += wire.encode_record_frame(seg, end, payload)
                    session.sent_bytes += len(payload)
                    session.sent_pos = (seg, end)
                    self.stats.records_sent += 1
                    self.stats.bytes_sent += len(payload)
                try:
                    writer.write(bytes(sent))
                    await self._drain(writer)
                except asyncio.TimeoutError:
                    self.stats.slow_replica_drops += 1
                    return
                continue
            # Caught up with the on-disk tail.  This check and the switch
            # to live mode run in one event-loop slice, so no append can
            # slip between them.
            if tailer.position == self.manager.writer.position:
                session.live = True
                session.event.clear()
                timeout = max(
                    0.001,
                    min(
                        self.flush_interval,
                        self.heartbeat_interval
                        - (loop.time() - last_heartbeat),
                    ),
                )
                try:
                    await asyncio.wait_for(session.event.wait(), timeout)
                except asyncio.TimeoutError:
                    pass

    def _backlog_on_disk(self, position: Tuple[int, int]) -> int:
        """Approximate on-disk bytes between ``position`` and the writer."""
        writer_seq, writer_off = self.manager.writer.position
        seg, off = position
        if seg >= writer_seq:
            return max(0, writer_off - off) if seg == writer_seq else 0
        total = 0
        magic = len(SEGMENT_MAGIC)
        for seq, path in list_segments(self.manager.config.directory):
            if seq < seg or seq > writer_seq:
                continue
            if seq == writer_seq:
                total += max(0, writer_off - magic)
                continue
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            total += max(0, size - (off if seq == seg else magic))
        return total

    async def _ack_loop(
        self, reader: asyncio.StreamReader, session: _ReplicaSession
    ) -> None:
        try:
            while True:
                frame = await wire.read_frame(reader)
                if frame is None:
                    break
                frame_type, body = frame
                if frame_type != wire.ACK:
                    continue
                applied_bytes, seg, off = wire.decode_ack(body)
                session.acked_bytes = applied_bytes
                session.acked_pos = (seg, off)
                self.stats.acks_received += 1
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        except ReplicationError:
            # A garbage ACK frame: the finally below ends the session.
            pass
        finally:
            session.closed = True
            session.event.set()
