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
  segment is gone while newer ones exist — or it has read its segment
  to the end and the next survivor is not the successor (segments are
  numbered consecutively) — the position is unrecoverable from the
  journal alone and :class:`SegmentPrunedError` tells the caller to
  fall back to a checkpoint-image resync.  Rot in a segment that has a
  successor (a bad magic or frame) is the same error: records past it
  must not be applied over the hole.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from repro.common.errors import JournalError
from repro.common.framing import SEGMENT_MAGIC, iter_frames
from repro.durability.journal import list_segments, segment_name
from repro.durability.manager import list_checkpoints


class SegmentPrunedError(JournalError):
    """The journal past the tailer's position was pruned or has rotted;
    resync from a checkpoint image."""


#: One tailed record, CRC-checked and undecoded: (payload, segment,
#: end_offset).  The sender ships the payload as it is; whoever applies
#: it decodes it, once.
TailedRecord = Tuple[bytes, int, int]


class JournalTailer:
    """Read whole records from a journal directory, following rotations.

    ``offset`` 0 (or anything below the magic) means "start of segment".
    The tailer never blocks: :meth:`read_batch` returns what is on disk
    right now and the caller decides how to wait for more (the
    replication source sleeps one flush tick).
    """

    def __init__(self, directory: str, segment: int, offset: int = 0) -> None:
        self.directory = os.fspath(directory)
        self.segment = segment
        self.offset = max(offset, len(SEGMENT_MAGIC))
        self.damage: Optional[JournalError] = None  # see read_batch
        self._stream = None

    @property
    def position(self) -> Tuple[int, int]:
        return self.segment, self.offset

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    # -- internals -------------------------------------------------------------

    def _open_current(self) -> None:
        """Open the current segment if need be; raises FileNotFoundError
        or, for a bad magic, JournalError."""
        if self._stream is not None:
            return
        path = os.path.join(self.directory, segment_name(self.segment))
        stream = open(path, "rb")
        magic = stream.read(len(SEGMENT_MAGIC))
        if magic != SEGMENT_MAGIC:
            stream.close()
            raise JournalError(f"bad magic {magic!r}")
        self._stream = stream

    def _next_segment(self) -> Optional[int]:
        """Smallest on-disk seq > current, or None."""
        segments = list_segments(self.directory)
        return min((seq for seq, _ in segments if seq > self.segment), default=None)

    # -- the read loop ---------------------------------------------------------

    def read_batch(self, max_records: int = 256) -> List[TailedRecord]:
        """Up to ``max_records`` whole records at/after the position.

        Returns an empty list when caught up with the on-disk tail.  A
        short or CRC-failing frame (or magic) at the end of the *newest*
        segment is "no more yet", kept in :attr:`damage`: on a live
        primary it can only be a write in progress, in a dead primary's
        directory a torn tail or rot; the position stays before it and
        the next call retries.

        Raises :class:`SegmentPrunedError` when the position's segment no
        longer exists (checkpoint pruning passed it), or is damaged while
        a successor exists: the writer finished that segment, so that is
        rot no amount of waiting fixes, and records past a hole must not
        be shipped (recovery's rule).
        """
        out: List[TailedRecord] = []
        self.damage = None
        while len(out) < max_records:
            damage: Optional[JournalError] = None
            try:
                self._open_current()
                self._stream.seek(self.offset)
                for payload, end in iter_frames(self._stream, self.offset):
                    out.append((payload, self.segment, end))
                    self.offset = end
                    if len(out) == max_records:
                        return out
            except FileNotFoundError:
                if self._next_segment() is None and not list_checkpoints(
                    self.directory
                ):
                    # Nothing newer on disk either: the writer simply has
                    # not created this segment yet (we are at its start).
                    return out
                raise SegmentPrunedError(
                    f"segment {segment_name(self.segment)} pruned under "
                    "the tailer; checkpoint resync required"
                ) from None
            except JournalError as exc:
                damage = exc
            # No further whole record here.  Hand off iff a newer segment
            # exists: the writer closes a segment before creating its
            # successor and never touches it again, so a clean end of
            # file there is final.
            next_seq = self._next_segment()
            if next_seq is None or (damage is not None and out):
                self.damage = damage
                return out
            if damage is not None or next_seq != self.segment + 1:
                # Rot in a finished segment, or (segments are numbered
                # consecutively) its successor pruned while we held it
                # open: stepping on would skip records.
                raise SegmentPrunedError(
                    f"cannot follow {segment_name(self.segment)} past byte "
                    f"{self.offset} ({damage or 'successor pruned'}); "
                    "checkpoint resync required"
                )
            self.close()
            self.segment = next_seq
            self.offset = len(SEGMENT_MAGIC)
        return out
