"""Append-only write-ahead journal: CRC-framed records, segment rotation.

Every acknowledged mutation (SET or DELETE) appends one record to the
active segment *before* the acknowledgement leaves the server, so the
on-disk journal is always at least as new as anything a client was told.
Recovery replays the journal on top of the newest valid checkpoint; the
frame CRCs make the only two crash outcomes distinguishable:

* a **torn tail** — the process (or machine) died mid-append; the last
  record is short or its CRC fails.  Replay stops cleanly at the last
  whole record, counts what was cut, and truncates the segment back to
  its valid prefix so the file is clean at rest.
* **bit rot** — a record *before* the tail fails its CRC.  That is not a
  crash artefact; replay stops there too (applying later records over a
  damaged middle could resurrect deleted keys), quarantines the damage,
  and counts the loss.

The record format, its frame reader, decoder and applier live in
:mod:`repro.common.framing`, shared with cache images; this module owns
the segment files, their rotation and the fsync policy.

Fsync policy decides the loss bound on *power* failure (a SIGKILL loses
nothing past the OS write() in any mode, because every append is flushed
to the kernel):

* ``always`` — fsync before every acknowledgement.  Zero acknowledged
  writes lost, ever.
* ``interval`` — fsync at most every ``fsync_interval`` seconds; a power
  cut loses at most the last interval's acknowledgements.
* ``never`` — leave it to the OS; bounded only by the kernel's own
  writeback horizon.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import monotonic
from typing import BinaryIO, List, Optional, Tuple

from repro.common.errors import ConfigurationError, JournalError
from repro.common.framing import (
    OP_DELETE,
    OP_SET,
    SEGMENT_MAGIC,
    encode_payload,
    frame,
)
from repro.common.fsio import fsync_directory

FSYNC_POLICIES = ("always", "interval", "never")

SEGMENT_PREFIX = "journal-"
SEGMENT_SUFFIX = ".wal"


def segment_name(seq: int) -> str:
    return f"{SEGMENT_PREFIX}{seq:08d}{SEGMENT_SUFFIX}"


def parse_segment_seq(name: str) -> Optional[int]:
    """The sequence number of a segment file name, or None."""
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
        return None
    digits = name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
    if not digits.isdigit():
        return None
    return int(digits)


def list_segments(directory: str) -> List[Tuple[int, str]]:
    """(seq, path) for every segment in ``directory``, ascending by seq."""
    found = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        seq = parse_segment_seq(name)
        if seq is not None:
            found.append((seq, os.path.join(directory, name)))
    found.sort()
    return found


# -- the writer -----------------------------------------------------------------


@dataclass
class JournalConfig:
    """Knobs for one journal writer."""

    directory: str
    #: Rotate the active segment past this many bytes.
    segment_bytes: int = 1 << 20
    #: ``always`` / ``interval`` / ``never`` — see the module doc.
    fsync: str = "interval"
    #: Max seconds of acknowledged writes at risk under ``interval``.
    fsync_interval: float = 0.05

    def validate(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"fsync must be one of {FSYNC_POLICIES}, got {self.fsync!r}"
            )
        if self.segment_bytes < 64:
            raise ConfigurationError("segment_bytes must be >= 64")
        if self.fsync_interval <= 0:
            raise ConfigurationError("fsync_interval must be positive")


@dataclass
class DurabilityStats:
    """Every counter the durability layer keeps (mounted into metrics)."""

    journal_appends: int = 0
    journal_bytes: int = 0
    fsyncs: int = 0
    segments_created: int = 0
    segments_pruned: int = 0
    checkpoints_written: int = 0
    checkpoint_items: int = 0
    checkpoints_pruned: int = 0
    # -- recovery (set once at startup) ---------------------------------------
    recovered_checkpoint_seq: int = 0
    recovered_items: int = 0
    recovery_skipped_records: int = 0
    replayed_segments: int = 0
    replayed_records: int = 0
    torn_tail_records: int = 0
    truncated_bytes: int = 0
    quarantined_files: int = 0
    # -- scrubbing ------------------------------------------------------------
    scrub_passes: int = 0
    scrub_files_checked: int = 0
    scrub_failures: int = 0


class JournalWriter:
    """Single-writer append log with rotation and a pluggable fsync policy.

    Opening a writer never appends to an existing segment: old segments
    may end in a torn tail (that is recovery's business), so each writer
    starts a fresh segment at ``max(existing) + 1``.  Every append is
    flushed to the OS before returning — a SIGKILL can therefore lose at
    most the record being written, in any fsync mode.
    """

    def __init__(
        self,
        config: JournalConfig,
        stats: Optional[DurabilityStats] = None,
        start_seq: Optional[int] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.stats = stats if stats is not None else DurabilityStats()
        os.makedirs(config.directory, exist_ok=True)
        if start_seq is None:
            existing = list_segments(config.directory)
            start_seq = (existing[-1][0] + 1) if existing else 1
        self._seq = start_seq - 1
        self._stream: Optional[BinaryIO] = None
        self._segment_written = 0
        self._unsynced = 0
        self._last_sync = monotonic()
        self._open_next_segment()

    # -- plumbing --------------------------------------------------------------

    @property
    def position(self) -> Tuple[int, int]:
        """(segment seq, byte offset) just past the last flushed record."""
        return self._seq, self._segment_written

    @property
    def current_path(self) -> str:
        return os.path.join(self.config.directory, segment_name(self._seq))

    def _open_next_segment(self) -> None:
        if self._stream is not None:
            self._close_stream(final_sync=True)
        self._seq += 1
        path = self.current_path
        stream = open(path, "wb")
        stream.write(SEGMENT_MAGIC)
        stream.flush()
        self._stream = stream
        self._segment_written = len(SEGMENT_MAGIC)
        self.stats.segments_created += 1
        # The new directory entry must be durable before any record in it
        # matters; one dir fsync per rotation is cheap.
        fsync_directory(self.config.directory)

    def _close_stream(self, final_sync: bool) -> None:
        assert self._stream is not None
        try:
            self._stream.flush()
            if final_sync and self._unsynced:
                os.fsync(self._stream.fileno())
                self.stats.fsyncs += 1
                self._unsynced = 0
        finally:
            self._stream.close()
            self._stream = None

    # -- appends ---------------------------------------------------------------

    def append_set(self, key: bytes, value: bytes, flags: int = 0) -> None:
        self._append(encode_payload(OP_SET, key, value, flags))

    def append_delete(self, key: bytes) -> None:
        self._append(encode_payload(OP_DELETE, key))

    def _append(self, payload: bytes) -> None:
        if self._stream is None:
            raise JournalError("journal writer is closed")
        record = frame(payload)
        if self._segment_written + len(record) > self.config.segment_bytes:
            self._open_next_segment()
        stream = self._stream
        assert stream is not None
        stream.write(record)
        # Always push to the kernel: a process crash (SIGKILL) then loses
        # nothing that was acknowledged, regardless of fsync policy.
        stream.flush()
        self._segment_written += len(record)
        self._unsynced += 1
        self.stats.journal_appends += 1
        self.stats.journal_bytes += len(record)
        policy = self.config.fsync
        if policy == "always":
            os.fsync(stream.fileno())
            self.stats.fsyncs += 1
            self._unsynced = 0
            self._last_sync = monotonic()
        elif policy == "interval":
            now = monotonic()
            if now - self._last_sync >= self.config.fsync_interval:
                os.fsync(stream.fileno())
                self.stats.fsyncs += 1
                self._unsynced = 0
                self._last_sync = now

    def maybe_sync(self) -> bool:
        """Interval-policy housekeeping for idle periods; True if fsynced."""
        if (
            self._stream is None
            or not self._unsynced
            or self.config.fsync == "never"
        ):
            return False
        if (
            self.config.fsync == "interval"
            and monotonic() - self._last_sync < self.config.fsync_interval
        ):
            return False
        self.sync()
        return True

    def sync(self) -> None:
        """Force an fsync of the active segment."""
        if self._stream is None or not self._unsynced:
            return
        self._stream.flush()
        os.fsync(self._stream.fileno())
        self.stats.fsyncs += 1
        self._unsynced = 0
        self._last_sync = monotonic()

    def rotate(self) -> int:
        """Close the active segment and start a new one; returns its seq.

        Checkpoints call this first: everything in segments ``< rotate()``
        is covered by the checkpoint image about to be written.
        """
        self._open_next_segment()
        return self._seq

    def close(self) -> None:
        if self._stream is not None:
            self._close_stream(final_sync=self.config.fsync != "never")

    @property
    def closed(self) -> bool:
        return self._stream is None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
