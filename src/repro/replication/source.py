"""The primary's replication listener: the journal file is the stream.

One :class:`ReplicationSource` serves any number of replicas.  Each
replica connection is in one of two sending modes:

* **tail** — read the on-disk journal from the replica's position via
  :class:`~repro.replication.tailer.JournalTailer` and ship what is
  there.  ``JournalWriter._append`` flushes every record to the OS
  before the write is acknowledged, so the file is always at least as
  far along as anything a client was told; there is nothing to ship
  that the file does not hold, and the sender buffers one batch in RAM.
  Caught up, it sleeps one flush tick: appends never wake it.
* **snapshot resync** — pruning passed the replica's position, rot
  sits in a closed segment ahead of it (the tailer says both with
  :class:`SegmentPrunedError`) or its HELLO position was bogus: stream
  the current cache image (the same bytes a checkpoint would hold) and
  resume tailing from the position captured atomically with the image.

The sender only ever moves forward from what it has sent, so a replica
never sees a record twice within a session and never steps back.

Backpressure is explicit: socket writes must drain within
``WRITE_TIMEOUT`` or the replica is dropped (it reconnects and resumes
from its position).
"""

from __future__ import annotations

import asyncio
import io
import os
from typing import Optional, Set, Tuple

from repro.common.errors import ReplicationError
from repro.common.framing import SEGMENT_MAGIC
from repro.core.snapshot import write_snapshot
from repro.durability.journal import list_segments, segment_name
from repro.durability.manager import DurabilityManager
from repro.replication import wire
from repro.replication.stats import ReplicationStats
from repro.replication.tailer import JournalTailer, SegmentPrunedError

#: A caught-up sender sleeps this long before it looks at the file
#: again, so records appended meanwhile ship in one socket write.
#: Waking it per append would tax every SET ack on the serving path; the
#: tick makes the primary's streaming cost per-batch instead of
#: per-record, at the price of this much extra replica lag.
FLUSH_INTERVAL = 0.005
HEARTBEAT_INTERVAL = 0.25
#: A replica whose socket will not drain for this long is cut.
WRITE_TIMEOUT = 5.0
HELLO_TIMEOUT = 10.0


class _ReplicaSession:
    """Per-connection send state; owned by the handler task."""

    def __init__(self) -> None:
        self.task = asyncio.current_task()
        #: Payload bytes since the connection (or its last snapshot)
        #: began; both ends restart the count at a snapshot boundary.
        self.sent_bytes = 0
        self.acked_bytes = 0
        self.sent_pos: Tuple[int, int] = (0, 0)
        self.closed = False


class ReplicationSource:
    """Stream the journal (file tail + resync images) to replicas.

    ``cache`` is what a resync image is written from: the served cache,
    or the server's store, whose image carries each item's flags.
    """

    def __init__(
        self,
        cache,
        manager: DurabilityManager,
        stats: Optional[ReplicationStats] = None,
    ) -> None:
        assert manager.writer is not None, "recover_into must run first"
        self.cache = cache
        self.manager = manager
        self.stats = stats if stats is not None else ReplicationStats()
        self._sessions: Set[_ReplicaSession] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self, host: str, port: int) -> int:
        self._server = await asyncio.start_server(
            self._handle_replica, host=host, port=port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        sessions = list(self._sessions)
        for session in sessions:
            session.closed = True
        if sessions:
            # Each sender sees the flag within a flush tick (or, its
            # socket jammed, within WRITE_TIMEOUT) and ends by itself; a
            # handler still running when the loop stops would be
            # cancelled with its tailer and socket open.
            await asyncio.wait([session.task for session in sessions])

    @property
    def replicas_connected(self) -> int:
        return len(self._sessions)

    @property
    def max_replica_lag_bytes(self) -> int:
        """Sent but unacknowledged, plus what the file holds past the
        sent position: zero only once a replica has acked everything."""
        return max(
            (
                max(0, s.sent_bytes - s.acked_bytes)
                + self._backlog_on_disk(s.sent_pos)
                for s in self._sessions
            ),
            default=0,
        )

    # -- per-replica sender ----------------------------------------------------

    async def _handle_replica(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = _ReplicaSession()
        ack_task: Optional[asyncio.Task] = None
        try:
            frame = await asyncio.wait_for(wire.read_frame(reader), HELLO_TIMEOUT)
            if frame is None or frame[0] != wire.HELLO:
                return
            segment, offset = wire.decode_position(frame[1])
            self.stats.replica_connects += 1
            self._sessions.add(session)
            ack_task = asyncio.create_task(self._ack_loop(reader, session))
            if not self._position_on_disk(segment, offset):
                segment, offset = await self._send_snapshot(writer, session)
            await self._send_loop(writer, session, segment, offset)
        except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError):
            pass
        except ReplicationError:  # a malformed HELLO or frame: drop it
            pass
        finally:
            self._sessions.discard(session)
            session.closed = True
            if ack_task is not None:
                ack_task.cancel()
                try:
                    await ack_task
                except asyncio.CancelledError:
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
        await asyncio.wait_for(writer.drain(), WRITE_TIMEOUT)

    async def _send_snapshot(
        self, writer: asyncio.StreamWriter, session: _ReplicaSession
    ) -> Tuple[int, int]:
        """Stream the cache image; returns the position it covers up to.

        The position capture and the image build happen with no await
        point between them, so the image is exactly the state at that
        journal position (the event loop cannot interleave a mutation).
        """
        position = self.manager.writer.position
        buffer = io.BytesIO()
        write_snapshot(self.cache, buffer)
        image = buffer.getvalue()
        session.sent_bytes = session.acked_bytes = 0
        writer.write(
            wire.encode_frame(
                wire.SNAP_BEGIN, wire.encode_position(*position)
            )
        )
        for start in range(0, len(image), wire.SNAPSHOT_CHUNK_BYTES):
            chunk = image[start : start + wire.SNAPSHOT_CHUNK_BYTES]
            writer.write(wire.encode_frame(wire.SNAP_CHUNK, chunk))
            await self._drain(writer)
        writer.write(wire.encode_frame(wire.SNAP_END))
        await self._drain(writer)
        self.stats.snapshots_sent += 1
        return position

    async def _send_loop(
        self,
        writer: asyncio.StreamWriter,
        session: _ReplicaSession,
        segment: int,
        offset: int,
    ) -> None:
        """Ship the journal from (segment, offset) until the session ends."""
        directory = self.manager.config.directory
        loop = asyncio.get_running_loop()
        last_heartbeat = 0.0
        tailer = JournalTailer(directory, segment, offset)
        try:
            session.sent_pos = tailer.position
            while not session.closed:
                now = loop.time()
                if now - last_heartbeat >= HEARTBEAT_INTERVAL:
                    writer.write(
                        wire.encode_heartbeat(
                            session.sent_bytes,
                            self._backlog_on_disk(session.sent_pos),
                            *session.sent_pos,
                        )
                    )
                    await self._drain(writer)
                    self.stats.heartbeats_sent += 1
                    last_heartbeat = now
                try:
                    batch = tailer.read_batch()
                except SegmentPrunedError:
                    tailer.close()
                    tailer = JournalTailer(
                        directory, *await self._send_snapshot(writer, session)
                    )
                    session.sent_pos = tailer.position
                    continue
                if not batch:
                    # Caught up with the file: the flush tick.
                    await asyncio.sleep(FLUSH_INTERVAL)
                    continue
                sent = bytearray()
                for payload, seg, end in batch:
                    sent += wire.encode_record_frame(seg, end, payload)
                    session.sent_bytes += len(payload)
                    session.sent_pos = (seg, end)
                    self.stats.records_sent += 1
                    self.stats.bytes_sent += len(payload)
                try:
                    writer.write(sent)
                    await self._drain(writer)
                except asyncio.TimeoutError:
                    self.stats.slow_replica_drops += 1
                    return
        finally:
            tailer.close()

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
                session.acked_bytes, _seg, _off = wire.decode_ack(body)
                self.stats.acks_received += 1
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        except ReplicationError:
            # A garbage ACK frame: the finally below ends the session.
            pass
        finally:
            session.closed = True
