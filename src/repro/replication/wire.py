"""Replication stream framing: length-prefixed, CRC-guarded frames.

The journal (PR 6) is already a total order of acknowledged mutations;
replication ships it. Every frame on the wire reuses the journal's
framing discipline so a flipped bit anywhere in the stream is detected
before a single byte reaches the replica's cache::

    [4-byte BE frame length][frame][4-byte BE CRC32(frame)]
    frame = [1-byte type][body]

Frame types (one ASCII byte each, so captures read well in a hex dump):

``H`` HELLO      replica -> primary: resume position (segment, offset);
                 (0, 0) means "no history, start me from scratch".
``B`` SNAP_BEGIN primary -> replica: a checkpoint-image resync follows;
                 body carries the journal position the image covers up
                 to — the record stream resumes exactly there.
``C`` SNAP_CHUNK primary -> replica: raw snapshot bytes.
``E`` SNAP_END   primary -> replica: empty; no chunks follow.  Whether
                 the image is whole is its own end record's call.
``R`` RECORD     primary -> replica: one journal record; body is the
                 position *after* the record (segment, end offset)
                 followed by the journal payload codec
                 (``[1B op][4B BE keylen][key][value]``).
``T`` HEARTBEAT  primary -> replica: (sent_bytes, backlog_bytes,
                 segment, offset) — the replica computes its lag from
                 this plus its own applied byte count.
``A`` ACK        replica -> primary: (applied_bytes, segment, offset).

Positions are ``(segment seq, byte offset within the segment)`` — the
same coordinates the journal writer and recovery use, so a replica's
resume position is directly checkable against the primary's directory.
``sent_bytes``/``applied_bytes`` count record *payload* bytes since the
current connection started; both sides reset them on (re)connect, which
keeps lag arithmetic immune to history the replica never saw.
"""

from __future__ import annotations

import asyncio
import struct
import zlib
from typing import Optional, Tuple

from repro.common import framing
from repro.common.errors import ReplicationError
from repro.common.framing import FRAME_LEN

POSITION = struct.Struct(">QQ")
HEARTBEAT_BODY = struct.Struct(">QQQQ")
ACK_BODY = struct.Struct(">QQQ")

HELLO = 0x48  # b"H"
SNAP_BEGIN = 0x42  # b"B"
SNAP_CHUNK = 0x43  # b"C"
SNAP_END = 0x45  # b"E"
RECORD = 0x52  # b"R"
HEARTBEAT = 0x54  # b"T"
ACK = 0x41  # b"A"

_KNOWN_TYPES = frozenset(
    (HELLO, SNAP_BEGIN, SNAP_CHUNK, SNAP_END, RECORD, HEARTBEAT, ACK)
)

#: Upper bound on one frame; snapshot chunks are 256 KiB and a record is
#: bounded by the journal's own field limits, so anything bigger is
#: stream damage, not data.
MAX_FRAME = 64 * 1024 * 1024

SNAPSHOT_CHUNK_BYTES = 256 * 1024


def encode_frame(frame_type: int, body: bytes = b"") -> bytes:
    return framing.frame(bytes((frame_type,)) + body)


def decode_frame(frame: bytes) -> Tuple[int, bytes]:
    """(type, body) from a CRC-verified frame; raises ReplicationError."""
    if not frame:
        raise ReplicationError("empty replication frame")
    frame_type = frame[0]
    if frame_type not in _KNOWN_TYPES:
        raise ReplicationError(f"unknown replication frame type {frame_type:#x}")
    return frame_type, frame[1:]


async def read_frame(reader) -> Optional[Tuple[int, bytes]]:
    """Read one frame from an ``asyncio.StreamReader``.

    Returns None on clean EOF at a frame boundary.  Mid-frame EOF, a CRC
    mismatch, or an implausible length raise :class:`ReplicationError` —
    the connection is poisoned and both sides resynchronise by
    reconnecting (TCP gives us no way to resync inside a broken stream).
    """
    header = await reader.read(FRAME_LEN.size)
    if not header:
        return None
    try:
        if len(header) != FRAME_LEN.size:
            header += await reader.readexactly(FRAME_LEN.size - len(header))
        (frame_len,) = FRAME_LEN.unpack(header)
        if frame_len == 0 or frame_len > MAX_FRAME:
            raise ReplicationError(
                f"implausible replication frame length {frame_len}"
            )
        frame = await reader.readexactly(frame_len)
        trailer = await reader.readexactly(FRAME_LEN.size)
    except (EOFError, asyncio.IncompleteReadError) as exc:
        raise ReplicationError("replication stream cut mid-frame") from exc
    (stored_crc,) = FRAME_LEN.unpack(trailer)
    actual_crc = zlib.crc32(frame)
    if stored_crc != actual_crc:
        raise ReplicationError(
            f"replication frame CRC mismatch: stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}"
        )
    return decode_frame(frame)


# -- typed body helpers ---------------------------------------------------------


def encode_position(segment: int, offset: int) -> bytes:
    return POSITION.pack(segment, offset)


def decode_position(body: bytes) -> Tuple[int, int]:
    if len(body) != POSITION.size:
        raise ReplicationError(f"bad position body length {len(body)}")
    return POSITION.unpack(body)


def encode_record_frame(
    segment: int, end_offset: int, payload: bytes
) -> bytes:
    return encode_frame(RECORD, POSITION.pack(segment, end_offset) + payload)


def decode_record_body(body: bytes) -> Tuple[int, int, bytes]:
    """(segment, end_offset, journal payload) from a RECORD body."""
    if len(body) <= POSITION.size:
        raise ReplicationError("record frame too short for its position")
    segment, end_offset = POSITION.unpack_from(body)
    return segment, end_offset, body[POSITION.size :]


def encode_heartbeat(
    sent_bytes: int, backlog_bytes: int, segment: int, offset: int
) -> bytes:
    return encode_frame(
        HEARTBEAT,
        HEARTBEAT_BODY.pack(sent_bytes, backlog_bytes, segment, offset),
    )


def decode_heartbeat(body: bytes) -> Tuple[int, int, int, int]:
    if len(body) != HEARTBEAT_BODY.size:
        raise ReplicationError(f"bad heartbeat body length {len(body)}")
    return HEARTBEAT_BODY.unpack(body)


def encode_ack(applied_bytes: int, segment: int, offset: int) -> bytes:
    return encode_frame(ACK, ACK_BODY.pack(applied_bytes, segment, offset))


def decode_ack(body: bytes) -> Tuple[int, int, int]:
    if len(body) != ACK_BODY.size:
        raise ReplicationError(f"bad ack body length {len(body)}")
    return ACK_BODY.unpack(body)
