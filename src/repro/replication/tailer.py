"""Follow a live journal directory from a (segment, offset) position.

The primary's replication sender and a promoting replica's catch-up both
need the same primitive: "give me every whole record after position P,
across segment rotations, and tell me when P has been pruned out from
under me".  The tailer provides it without any coordination with the
writer beyond the on-disk ordering the writer already guarantees:

* the writer closes (and flushes) a segment *before* creating its
  successor, so once ``journal-N+1.wal`` exists, ``journal-N.wal`` is
  final — a tailer that has consumed N to EOF may hand off;
* records never straddle segments (rotation happens before an append
  that would not fit), so the handoff point is always a frame boundary;
* a short or CRC-failing record at the end of the *newest* segment is a
  write in progress (or, for a dead primary's directory, an unacked torn
  tail) — the tailer stops cleanly before it and will resume if more
  bytes arrive;
* checkpoint pruning deletes old segments; if the tailer's current
  segment is gone while newer ones exist, the position is unrecoverable
  from the journal alone and :class:`SegmentPrunedError` tells the
  caller to fall back to a checkpoint-image resync.
"""

from __future__ import annotations

import os
import zlib
from typing import List, Optional, Tuple

from repro.common.errors import JournalError
from repro.durability.journal import (
    FRAME_LEN,
    SEGMENT_MAGIC,
    decode_payload,
    list_segments,
    segment_name,
)


class SegmentPrunedError(JournalError):
    """The tailer's position was pruned; resync from a checkpoint image."""


#: One tailed record: (op, key, value, payload, segment, end_offset).
TailedRecord = Tuple[int, bytes, bytes, bytes, int, int]


class JournalTailer:
    """Read whole records from a journal directory, following rotations.

    ``offset`` 0 (or anything below the magic) means "start of segment".
    The tailer never blocks: :meth:`read_batch` returns what is on disk
    right now and the caller decides how to wait for more (the
    replication source wakes on the writer's append listener).
    """

    def __init__(self, directory: str, segment: int, offset: int = 0) -> None:
        self.directory = os.fspath(directory)
        self.segment = segment
        self.offset = max(offset, len(SEGMENT_MAGIC))
        self._stream = None

    @property
    def position(self) -> Tuple[int, int]:
        return self.segment, self.offset

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    # -- internals -------------------------------------------------------------

    def _segment_path(self, seq: int) -> str:
        return os.path.join(self.directory, segment_name(seq))

    def _open_current(self) -> bool:
        """Ensure the current segment is open and positioned; False if absent."""
        if self._stream is not None:
            return True
        path = self._segment_path(self.segment)
        try:
            stream = open(path, "rb")
        except FileNotFoundError:
            return False
        magic = stream.read(len(SEGMENT_MAGIC))
        if magic != SEGMENT_MAGIC:
            stream.close()
            raise JournalError(
                f"bad magic in tailed segment {segment_name(self.segment)}: "
                f"{magic!r}"
            )
        stream.seek(self.offset)
        self._stream = stream
        return True

    def _next_segment(self) -> Optional[int]:
        """Smallest on-disk seq > current, or None."""
        later = [
            seq for seq, _path in list_segments(self.directory)
            if seq > self.segment
        ]
        return min(later) if later else None

    def _read_one(self) -> Optional[Tuple[int, bytes, bytes, bytes]]:
        """One whole record at the current offset, or None (partial/EOF).

        A partial frame is left untouched (the stream is rewound) so the
        next call retries once the writer has finished it.  A CRC failure
        is also treated as "no more": on a live primary it can only be a
        torn in-progress write; on a dead primary's directory it is the
        unacked torn tail recovery would truncate anyway.
        """
        stream = self._stream
        assert stream is not None
        start = self.offset
        header = stream.read(FRAME_LEN.size)
        if len(header) != FRAME_LEN.size:
            stream.seek(start)
            return None
        (payload_len,) = FRAME_LEN.unpack(header)
        body = stream.read(payload_len + FRAME_LEN.size)
        if len(body) != payload_len + FRAME_LEN.size:
            stream.seek(start)
            return None
        payload, trailer = body[:payload_len], body[payload_len:]
        (stored_crc,) = FRAME_LEN.unpack(trailer)
        if stored_crc != zlib.crc32(payload):
            stream.seek(start)
            return None
        op, key, value = decode_payload(payload)
        self.offset = start + FRAME_LEN.size * 2 + payload_len
        return op, key, value, payload

    # -- the read loop ---------------------------------------------------------

    def read_batch(self, max_records: int = 256) -> List[TailedRecord]:
        """Up to ``max_records`` whole records at/after the position.

        Returns an empty list when caught up with the on-disk tail.
        Raises :class:`SegmentPrunedError` when the position's segment no
        longer exists (checkpoint pruning passed it), and plain
        :class:`JournalError` for at-rest damage in a *non-tail* spot
        (bad magic), which no amount of waiting will fix.
        """
        out: List[TailedRecord] = []
        while len(out) < max_records:
            if not self._open_current():
                if self._next_segment() is not None or self._has_checkpoints():
                    raise SegmentPrunedError(
                        f"segment {segment_name(self.segment)} pruned under "
                        "the tailer; checkpoint resync required"
                    )
                # Nothing newer on disk either: the writer simply has not
                # created this segment yet (we are positioned at its start).
                return out
            record = self._read_one()
            if record is not None:
                op, key, value, payload = record
                out.append((op, key, value, payload, self.segment, self.offset))
                continue
            # No whole record here.  Hand off iff a newer segment exists —
            # the writer never touches this one again — and we have truly
            # consumed it (anything left is a torn unacked tail, which the
            # writer's close-before-create ordering makes impossible on a
            # live rotation, and recovery truncates on a dead one).
            next_seq = self._next_segment()
            if next_seq is None:
                return out
            self.close()
            self.segment = next_seq
            self.offset = len(SEGMENT_MAGIC)
        return out

    def _has_checkpoints(self) -> bool:
        from repro.durability.manager import list_checkpoints

        return bool(list_checkpoints(self.directory))
