"""The item codec: CRC-framed SET/DELETE records, and a run of them.

An item on its way to disk or to a replica is encoded once, here.  A
*segment* is an 8-byte magic followed by framed records; a journal
segment (``durability/journal.py``), a ``--snapshot`` file, a
``checkpoint-*.snap`` and the bytes of a replication resync image
(``core/snapshot.py``) are all segments, read by the one frame reader,
decoded by the one decoder and turned into mutations by the one applier
below.  The module depends on nothing but ``common.errors``, so ``core``
and ``durability`` both import it at module top.

Format (segment version 1): the magic, then per record::

    [4-byte BE payload length][payload][4-byte BE CRC32(payload)]
    payload = [1-byte op][4-byte BE key length][key bytes][value bytes]

Ops are ``S`` (set), ``D`` (delete, empty value), and ``F`` (set with
client flags — a 4-byte BE flags word between the key and the value;
plain ``S`` is written when flags are zero).  Lengths are bounds-checked
before allocation.  No pickling: the format is independent of Python
versions and safe to read from untrusted sources.

A cache image ends with one more record, ``E``: its payload is the op
byte and an 8-byte BE count of the records before it.  A segment is
*sealed* when its last record is an ``E`` whose count matches and
nothing follows it; a journal segment never is, an image that is whole
always is.

The frame CRC is what lets a reader stop at damage instead of serving
it: a short, oversized or CRC-failing frame ends the scan at the last
whole record, and everything before it is exactly what was written.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterator, Optional, Tuple, Union

from repro.common.errors import JournalError

SEGMENT_MAGIC = b"ZXWAL001"

OP_SET = 0x53  # b"S"
OP_DELETE = 0x44  # b"D"
#: A SET carrying a non-zero client-flags word (4 bytes BE after the key).
OP_SET_FLAGS = 0x46  # b"F"
#: An image's last record: the count of records before it.
OP_END = 0x45  # b"E"

FRAME_LEN = struct.Struct(">I")
_PAYLOAD_HEAD = struct.Struct(">BI")
_END_PAYLOAD = struct.Struct(">BQ")
#: Sanity bound: no key or value > 256 MiB.
_MAX_FIELD = 256 * 1024 * 1024
MAX_PAYLOAD = _PAYLOAD_HEAD.size + 2 * _MAX_FIELD


def encode_payload(
    op: int, key: bytes, value: bytes = b"", flags: int = 0
) -> bytes:
    """The unframed record payload (shared with the replication stream).

    A SET with non-zero ``flags`` is encoded as :data:`OP_SET_FLAGS`
    regardless of the ``op`` argument; zero-flag SETs stay plain
    :data:`OP_SET`.
    """
    if op not in (OP_SET, OP_DELETE, OP_SET_FLAGS):
        raise ValueError(f"unknown journal op {op:#x}")
    if op == OP_DELETE and flags:
        raise ValueError("delete records carry no flags")
    if flags and op == OP_SET:
        op = OP_SET_FLAGS
    head = _PAYLOAD_HEAD.pack(op, len(key)) + key
    if op == OP_SET_FLAGS:
        return head + FRAME_LEN.pack(flags) + value
    return head + value


def frame(payload: bytes) -> bytes:
    """``payload`` between its length word and its CRC: what a segment holds."""
    return (
        FRAME_LEN.pack(len(payload))
        + payload
        + FRAME_LEN.pack(zlib.crc32(payload))
    )


def encode_record(
    op: int, key: bytes, value: bytes = b"", flags: int = 0
) -> bytes:
    """One framed record, CRC included."""
    return frame(encode_payload(op, key, value, flags))


def end_record(count: int) -> bytes:
    """The framed ``E`` record that seals an image of ``count`` records."""
    return frame(_END_PAYLOAD.pack(OP_END, count))


def decode_payload(payload: bytes) -> Tuple[int, bytes, bytes, int]:
    """(op, key, value, flags) from a CRC-verified payload.

    ``op`` is normalised: :data:`OP_SET_FLAGS` records come back as
    :data:`OP_SET` with their flags word extracted, so every consumer
    dispatches on exactly two ops.  Raises JournalError on damage.
    """
    if len(payload) < _PAYLOAD_HEAD.size:
        raise JournalError("record payload shorter than its fixed header")
    op, key_len = _PAYLOAD_HEAD.unpack_from(payload)
    if op not in (OP_SET, OP_DELETE, OP_SET_FLAGS):
        raise JournalError(f"unknown journal op {op:#x}")
    if key_len > _MAX_FIELD or _PAYLOAD_HEAD.size + key_len > len(payload):
        raise JournalError(f"implausible key length {key_len}")
    key = payload[_PAYLOAD_HEAD.size : _PAYLOAD_HEAD.size + key_len]
    rest = payload[_PAYLOAD_HEAD.size + key_len :]
    flags = 0
    if op == OP_SET_FLAGS:
        if len(rest) < FRAME_LEN.size:
            raise JournalError("flagged set record missing its flags word")
        (flags,) = FRAME_LEN.unpack_from(rest)
        rest = rest[FRAME_LEN.size :]
        op = OP_SET
    if op == OP_DELETE and rest:
        raise JournalError("delete record carries a value")
    return op, key, rest, flags


def apply_record(target, op: int, key: bytes, value: bytes, flags: int) -> None:
    """Apply one decoded record to ``target`` (a cache, or anything with
    its ``set(key, value, flags=)``/``delete(key)``).

    The one place a record becomes a mutation: recovery (a full
    catch-up's included), image loads and the replica's applier call it.
    An error from ``target`` propagates: recovery and image loads pass it
    on, the replica's applier counts it; no cache in the library raises.
    """
    if op == OP_SET:
        target.set(key, value, flags=flags)
    else:
        target.delete(key)


def iter_frames(stream: BinaryIO, offset: int) -> Iterator[Tuple[bytes, int]]:
    """Yield CRC-checked ``(payload, end_offset)`` from ``stream`` at ``offset``.

    The one frame reader: recovery, image loads and the scrubber decode
    what it yields, the replication tailer ships it undecoded.  Returns
    at a clean end of file; a short, oversized or CRC-failing frame
    raises :class:`JournalError` with the stream left past the damage
    (a consumer that means to retry seeks back to the last
    ``end_offset``).
    """
    while True:
        header = stream.read(FRAME_LEN.size)
        if not header:
            return
        if len(header) != FRAME_LEN.size:
            raise JournalError("torn record length header")
        (payload_len,) = FRAME_LEN.unpack(header)
        if payload_len > MAX_PAYLOAD:
            raise JournalError(f"implausible payload length {payload_len}")
        body = stream.read(payload_len + FRAME_LEN.size)
        if len(body) != payload_len + FRAME_LEN.size:
            raise JournalError("torn record body")
        payload = body[:payload_len]
        (stored_crc,) = FRAME_LEN.unpack_from(body, payload_len)
        actual_crc = zlib.crc32(payload)
        if stored_crc != actual_crc:
            raise JournalError(
                f"record CRC mismatch: stored {stored_crc:#010x}, "
                f"computed {actual_crc:#010x}"
            )
        offset += FRAME_LEN.size * 2 + payload_len
        yield payload, offset


@dataclass
class SegmentScan:
    """Outcome of reading one segment: the valid prefix plus damage info."""

    records: int = 0
    #: Byte offset just past the last whole, CRC-valid record; 0 when the
    #: magic itself was wrong (the bytes never were a segment).
    valid_bytes: int = 0
    #: Bytes past the valid prefix (torn tail or corrupt middle), 0 if clean.
    damaged_bytes: int = 0
    #: Human-readable description of the first damage hit, or None.
    error: Optional[str] = None
    #: The last record was an ``E`` counting the records before it, and
    #: nothing followed it.
    sealed: bool = False

    @property
    def clean(self) -> bool:
        return self.error is None


def read_segment(
    source: Union[str, "os.PathLike[str]", BinaryIO],
    apply: Optional[Callable[[int, bytes, bytes, int], None]] = None,
) -> SegmentScan:
    """Walk a segment, calling ``apply(op, key, value, flags)`` per record.

    ``source`` is a path or a seekable binary stream positioned at the
    magic.  ``op`` is normalised (see :func:`decode_payload`), so the
    callback dispatches on SET/DELETE only.  Every payload is decoded
    whether or not anyone listens: the scrubber's verdict covers the
    codec too.

    Never raises for damage: the scan stops at the first short,
    CRC-failing or undecodable record and reports it in the returned
    :class:`SegmentScan`.  A missing/garbled magic counts the whole
    source as damaged (records=0, valid_bytes=0).  An ``E`` record ends
    the scan: ``sealed`` when its count matches and nothing follows it,
    damage otherwise.
    """
    if hasattr(source, "read"):
        return _scan(source, apply)
    with open(source, "rb") as stream:
        return _scan(stream, apply)


def _scan(stream: BinaryIO, apply) -> SegmentScan:
    scan = SegmentScan()
    magic = stream.read(len(SEGMENT_MAGIC))
    if magic != SEGMENT_MAGIC:
        scan.error = f"bad segment magic: {magic!r}"
    else:
        scan.valid_bytes = len(SEGMENT_MAGIC)
        frames = iter_frames(stream, scan.valid_bytes)
        while True:
            # Only reading and decoding are damage; what ``apply`` raises
            # is the caller's and must not be booked against the source.
            try:
                payload, end_offset = next(frames)
                if payload and payload[0] == OP_END:
                    _check_end(payload, scan.records)
                    scan.valid_bytes = end_offset
                    if stream.read(1):
                        raise JournalError("bytes after the end record")
                    scan.sealed = True
                    break
                record = decode_payload(payload)
            except StopIteration:
                break
            except JournalError as exc:
                scan.error = str(exc)
                break
            if apply is not None:
                apply(*record)
            scan.records += 1
            scan.valid_bytes = end_offset
    if scan.error is not None:
        scan.damaged_bytes = stream.seek(0, os.SEEK_END) - scan.valid_bytes
    return scan


def _check_end(payload: bytes, records: int) -> None:
    if len(payload) != _END_PAYLOAD.size:
        raise JournalError(f"end record of {len(payload)} bytes")
    _op, count = _END_PAYLOAD.unpack(payload)
    if count != records:
        raise JournalError(
            f"end record counts {count} records, {records} precede it"
        )
