"""Checkpoints, point-in-time recovery, and the durability manager.

A durability directory holds three kinds of files::

    journal-XXXXXXXX.wal        append-only segments (see journal.py)
    checkpoint-XXXXXXXX.snap    base image covering all segments < XXXXXXXX
    quarantine/                 damaged files moved aside, never deleted

A checkpoint is a cache image — a segment of SET records in the
journal's own format, sealed by its end record, written by
:func:`repro.core.snapshot.write_snapshot` through
:func:`repro.common.fsio.atomic_write` and loaded by the same frame
reader and applier that replay the journal; its sequence number is
the journal segment that was *active when the image was taken*, i.e.
recovery = load ``checkpoint-S.snap`` then replay segments ``>= S`` in
order.  After a checkpoint lands durably, segments ``< S`` and older
checkpoints are pruned — a crash mid-prune merely leaves extra files
that the next recovery ignores.

Recovery ordering (the crash-consistency argument):

1. load the newest checkpoint that is an image at all, up to its first
   damaged record (an unsealed one is booked as ``checkpoint_skipped``);
   only bytes that never were an image (a bad magic) are quarantined and
   the next older one tried (worst case: no base image, cold start +
   full journal replay);
2. replay segments ``>= S`` ascending, stopping at the first torn or
   CRC-failing record.  A torn *tail* (the normal crash artefact) is
   truncated back to the valid prefix so the segment is clean at rest; a
   damaged *middle* segment is quarantined along with every later
   segment — applying newer records over a hole could resurrect deleted
   keys, and a detected bounded loss beats silent wrongness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

from repro.common.errors import ConfigurationError
from repro.common.framing import (
    SEGMENT_MAGIC,
    SegmentScan,
    apply_record,
    read_segment,
)
from repro.common.fsio import fsync_directory
from repro.core.snapshot import load_snapshot, write_snapshot
from repro.durability.journal import (
    DurabilityStats,
    JournalConfig,
    JournalWriter,
    list_segments,
    segment_name,
)

CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".snap"
QUARANTINE_DIR = "quarantine"


def checkpoint_name(seq: int) -> str:
    return f"{CHECKPOINT_PREFIX}{seq:08d}{CHECKPOINT_SUFFIX}"


def parse_checkpoint_seq(name: str) -> Optional[int]:
    if not (
        name.startswith(CHECKPOINT_PREFIX) and name.endswith(CHECKPOINT_SUFFIX)
    ):
        return None
    digits = name[len(CHECKPOINT_PREFIX) : -len(CHECKPOINT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def list_checkpoints(directory: str) -> List[tuple]:
    """(seq, path) for every checkpoint, ascending by seq."""
    found = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        seq = parse_checkpoint_seq(name)
        if seq is not None:
            found.append((seq, os.path.join(directory, name)))
    found.sort()
    return found


def quarantine_file(directory: str, path: str) -> Optional[str]:
    """Move ``path`` into ``directory/quarantine/``.

    Returns the new path, or None if the move failed (the file is then
    left in place but callers already treat it as unusable).
    """
    qdir = os.path.join(directory, QUARANTINE_DIR)
    os.makedirs(qdir, exist_ok=True)
    target = os.path.join(qdir, os.path.basename(path))
    try:
        os.replace(path, target)
    except OSError:
        return None
    fsync_directory(directory)
    return target


@dataclass
class RecoveryResult:
    """What one recovery pass restored, skipped, and cut."""

    checkpoint_seq: int = 0
    checkpoint_loaded: int = 0
    checkpoint_skipped: int = 0
    replayed_segments: int = 0
    replayed_records: int = 0
    #: Damaged records hit (0 or 1: replay stops at the first).
    torn_tail_records: int = 0
    #: Bytes of journal past the last applied record (tail + later segments).
    truncated_bytes: int = 0
    quarantined: List[str] = field(default_factory=list)
    #: Human-readable damage descriptions, in the order encountered.
    incidents: List[str] = field(default_factory=list)
    #: Set when the directory is missing a whole segment of history (a
    #: hole no quarantine pass could have produced — external tampering
    #: or a partial restore).  Serving over it could resurrect deletes
    #: and hide acknowledged writes, so callers must refuse to serve.
    history_gap: Optional[str] = None

    @property
    def clean(self) -> bool:
        return not self.incidents


@dataclass
class DurabilityConfig(JournalConfig):
    """Everything the durability subsystem needs to know: the journal
    writer's knobs, plus when to checkpoint and scrub."""

    #: Take a checkpoint once this many journal bytes accumulate past the
    #: previous one (0 disables automatic checkpoints).
    checkpoint_bytes: int = 4 << 20
    #: Seconds between background integrity scrubs (0 disables).
    scrub_interval: float = 30.0

    def validate(self) -> None:
        super().validate()
        if self.checkpoint_bytes < 0:
            raise ConfigurationError("checkpoint_bytes must be >= 0")
        if self.scrub_interval < 0:
            raise ConfigurationError("scrub_interval must be >= 0")


class DurabilityManager:
    """One durability directory: journal writer + checkpoints + recovery.

    Lifecycle: construct, :meth:`recover_into` the (empty) cache, then
    :meth:`attach_to` it so subsequent mutations write through.  The
    attach happens *after* recovery so replayed records are not
    re-journaled.  Recovery and checkpoints take whatever
    :func:`~repro.core.snapshot.load_snapshot` and ``write_snapshot``
    take: a cache, or the server's store with each item's flags.
    """

    def __init__(
        self,
        config: DurabilityConfig,
        stats: Optional[DurabilityStats] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.stats = stats if stats is not None else DurabilityStats()
        self.writer: Optional[JournalWriter] = None
        self._bytes_at_checkpoint = 0
        self.last_recovery: Optional[RecoveryResult] = None
        os.makedirs(config.directory, exist_ok=True)

    # -- recovery --------------------------------------------------------------

    def recover_into(self, cache) -> RecoveryResult:
        """Rebuild ``cache`` from checkpoint + journal, then open the writer."""
        result = replay_journal(self.config.directory, cache, stats=self.stats)
        self.last_recovery = result
        # The new segment must sort after everything already covered: a
        # surviving checkpoint at seq S with no segments left (all
        # quarantined) must not see a fresh writer open journal-00000001
        # below it — records there would be invisible to recovery.
        top = 0
        segments = list_segments(self.config.directory)
        if segments:
            top = segments[-1][0]
        for seq, _path in list_checkpoints(self.config.directory):
            top = max(top, seq)
        self.writer = JournalWriter(
            self.config,
            stats=self.stats,
            start_seq=top + 1 if top else None,
        )
        self._bytes_at_checkpoint = self.stats.journal_bytes
        return result

    def attach_to(self, cache) -> None:
        """Wire write-through journaling into the cache (post-recovery)."""
        assert self.writer is not None, "recover_into must run first"
        cache.attach_journal(self.writer)

    # -- checkpoints -----------------------------------------------------------

    @property
    def bytes_since_checkpoint(self) -> int:
        return self.stats.journal_bytes - self._bytes_at_checkpoint

    def should_checkpoint(self) -> bool:
        return (
            self.config.checkpoint_bytes > 0
            and self.bytes_since_checkpoint >= self.config.checkpoint_bytes
        )

    def checkpoint(self, cache) -> int:
        """Write a base image covering everything journaled so far.

        Returns the checkpoint's sequence number.  Ordering: rotate (so
        the image covers all closed segments), write + fsync the sealed
        image atomically, then prune covered segments and superseded
        checkpoints.
        """
        assert self.writer is not None, "recover_into must run first"
        self.writer.sync()
        seq = self.writer.rotate()
        path = os.path.join(self.config.directory, checkpoint_name(seq))
        count = write_snapshot(cache, path)
        self.stats.checkpoints_written += 1
        self.stats.checkpoint_items += count
        self._bytes_at_checkpoint = self.stats.journal_bytes
        self._prune(keep_from=seq)
        return seq

    def _prune(self, keep_from: int) -> None:
        directory = self.config.directory
        for seq, path in list_segments(directory):
            if seq < keep_from:
                try:
                    os.unlink(path)
                    self.stats.segments_pruned += 1
                except OSError:
                    pass
        for seq, path in list_checkpoints(directory):
            if seq < keep_from:
                try:
                    os.unlink(path)
                except OSError:
                    continue
                self.stats.checkpoints_pruned += 1
        fsync_directory(directory)

    # -- scrubbing -------------------------------------------------------------

    def scrub_once(self, cache):
        """Verify at-rest files (:mod:`repro.durability.scrub`); repair
        any failure from memory, by a checkpoint of ``cache``, whose
        prune deletes the rotten file.  Raises as :meth:`checkpoint`."""
        from repro.durability.scrub import scrub_directory

        report = scrub_directory(
            self.config.directory, self.writer.current_path, self.stats
        )
        if not report.clean:
            report.repaired_by = self.checkpoint(cache)
        return report

    # -- shutdown --------------------------------------------------------------

    def close(self, cache=None) -> None:
        """Final checkpoint (if a cache is given), then close the journal."""
        if self.writer is None:
            return
        if cache is not None:
            self.checkpoint(cache)
        self.writer.close()


# -- standalone recovery --------------------------------------------------------


def replay_journal(
    directory: str,
    cache,
    stats: Optional[DurabilityStats] = None,
) -> RecoveryResult:
    """Point-in-time recovery: newest valid checkpoint + journal replay
    into ``cache`` (or the server's store, which keeps the flags).

    Pure function of the directory's contents; damage never raises (it
    is counted, quarantined or truncated, and described in ``incidents``)
    and an error from ``cache`` propagates with every file left in place.
    """
    result = RecoveryResult()
    directory = os.fspath(directory)

    def quarantine(path: str) -> None:
        if quarantine_file(directory, path) is not None:
            result.quarantined.append(os.path.basename(path))

    # 1. Newest checkpoint that is an image at all.  A damaged or
    # unsealed one still gives its whole-record prefix, which is what
    # was written; refusing it whole would fall back to an older image
    # whose journal the newer checkpoint has already pruned.
    base_seq = 0
    for seq, path in reversed(list_checkpoints(directory)):
        try:
            image = load_snapshot(cache, path)
            unreadable = None if image.valid_bytes else image.error
        except OSError as exc:
            unreadable = f"{type(exc).__name__}: {exc}"
        if unreadable is not None:
            result.incidents.append(
                f"checkpoint {os.path.basename(path)} unreadable "
                f"({unreadable}); quarantined"
            )
            quarantine(path)
            continue
        base_seq = seq
        result.checkpoint_seq = seq
        result.checkpoint_loaded = image.records
        if not image.clean:
            result.checkpoint_skipped = 1
            result.incidents.append(f"checkpoint tail skipped: {image.error}")
        break

    # 2. Replay segments >= base_seq, oldest first.  A *hole* in that
    # range (a missing seq the writer must have created, or a first
    # segment newer than the checkpoint expects) cannot come from our own
    # quarantine passes (CI greps that only this file calls
    # quarantine_file): they cut history at a point, never out of the
    # middle.  Flag it and stop before the hole: replaying past one could
    # resurrect deleted keys and silently drop acked writes.
    segments = [
        (seq, path) for seq, path in list_segments(directory) if seq >= base_seq
    ]
    if segments:
        expected = base_seq if base_seq else segments[0][0]
        for seq, path in segments:
            if base_seq and seq > expected and expected == base_seq:
                result.history_gap = (
                    f"journal hole: checkpoint {checkpoint_name(base_seq)} "
                    f"expects replay to start at segment {base_seq}, but the "
                    f"oldest present is {os.path.basename(path)}"
                )
                break
            if seq > expected:
                result.history_gap = (
                    f"journal hole: segment {segment_name(expected)} is "
                    f"missing but {os.path.basename(path)} exists"
                )
                break
            expected = seq + 1
        if result.history_gap is not None:
            result.incidents.append(result.history_gap)
            segments = [(seq, path) for seq, path in segments if seq < expected]
    damaged_at: Optional[int] = None
    for index, (seq, path) in enumerate(segments):
        if damaged_at is not None:
            # Never apply records newer than a hole in history.
            result.truncated_bytes += _file_size(path)
            result.incidents.append(
                f"segment {os.path.basename(path)} follows damaged history; "
                "quarantined"
            )
            quarantine(path)
            continue
        scan: SegmentScan = read_segment(path, partial(apply_record, cache))
        result.replayed_segments += 1
        result.replayed_records += scan.records
        if scan.clean:
            continue
        damaged_at = seq
        result.torn_tail_records += 1
        result.truncated_bytes += scan.damaged_bytes
        is_last = index == len(segments) - 1
        kind = "torn tail" if is_last else "mid-log damage"
        result.incidents.append(
            f"{kind} in {os.path.basename(path)} at byte {scan.valid_bytes}: "
            f"{scan.error}"
        )
        if scan.valid_bytes >= len(SEGMENT_MAGIC):
            # Keep the valid prefix; cut the damage so the segment is
            # clean at rest (and future scrubs do not re-flag it).
            _truncate(path, scan.valid_bytes)
        else:
            # The magic itself was damaged: nothing salvageable.
            quarantine(path)

    if stats is not None:
        stats.recovered_checkpoint_seq = result.checkpoint_seq
        stats.recovered_items = result.checkpoint_loaded
        stats.recovery_skipped_records = result.checkpoint_skipped
        stats.replayed_segments = result.replayed_segments
        stats.replayed_records = result.replayed_records
        stats.torn_tail_records = result.torn_tail_records
        stats.truncated_bytes = result.truncated_bytes
        stats.quarantined_files += len(result.quarantined)
    return result


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _truncate(path: str, length: int) -> None:
    try:
        with open(path, "r+b") as stream:
            stream.truncate(length)
            stream.flush()
            os.fsync(stream.fileno())
    except OSError:
        pass
