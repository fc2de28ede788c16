"""Background integrity scrubbing of at-rest durability files.

Disk corruption does not wait for a restart: a journal segment or
checkpoint can rot while the server is healthy, and the worst time to
discover that is during the next crash recovery.  The scrubber re-walks
every at-rest file record by record — a checkpoint through
:func:`repro.core.snapshot.read_image`, so it must also be sealed — and
*quarantines* anything damaged (moves it into ``quarantine/``), so a
later recovery never silently replays rotten history; it sees a
smaller-but-sound set of files and counts the loss.

The active journal segment is skipped (the writer owns it; its tail is
legitimately in flux), as is anything already quarantined.  Files that
vanish mid-scrub (a concurrent checkpoint pruned them) are skipped, not
flagged: pruning is the one legal way for an at-rest file to disappear.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.framing import read_segment
from repro.core.snapshot import read_image
from repro.durability.journal import DurabilityStats, list_segments
from repro.durability.manager import list_checkpoints, quarantine_file


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    files_checked: int = 0
    segments_ok: int = 0
    checkpoints_ok: int = 0
    failures: List[str] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures


def scrub_directory(
    directory: str,
    active_segment: Optional[str] = None,
    stats: Optional[DurabilityStats] = None,
) -> ScrubReport:
    """Verify every at-rest segment and checkpoint; quarantine damage."""
    report = ScrubReport()
    active = os.path.abspath(active_segment) if active_segment else None

    for _seq, path in list_segments(directory):
        if active is not None and os.path.abspath(path) == active:
            continue
        if _verify(directory, path, read_segment, report):
            report.segments_ok += 1
    for _seq, path in list_checkpoints(directory):
        if _verify(directory, path, read_image, report):
            report.checkpoints_ok += 1

    if stats is not None:
        stats.scrub_passes += 1
        stats.scrub_files_checked += report.files_checked
        stats.scrub_failures += len(report.failures)
        stats.quarantined_files += len(report.quarantined)
    return report


def _verify(directory: str, path: str, read, report: ScrubReport) -> bool:
    """Walk one file with ``read``; quarantine it unless it reads clean."""
    try:
        scan = read(path)
    except FileNotFoundError:
        return False  # pruned underneath us — legal
    report.files_checked += 1
    if scan.clean:
        return True
    report.failures.append(f"{os.path.basename(path)}: {scan.error}")
    if quarantine_file(directory, path) is not None:
        report.quarantined.append(os.path.basename(path))
    return False
