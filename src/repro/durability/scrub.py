"""Background integrity scrubbing of at-rest durability files.

Disk corruption does not wait for a restart: a journal segment or
checkpoint can rot while the server is healthy, and the worst time to
discover that is during the next crash recovery.  The scrubber re-walks
every at-rest file record by record — a checkpoint through
:func:`repro.core.snapshot.read_image`, so it must also be sealed — and
reports what fails.  It moves and deletes nothing: the repair is
:meth:`repro.durability.manager.DurabilityManager.scrub_once`'s, which
checkpoints the live store (whole while the node serves) and so prunes
every rotten file with the history the checkpoint covers.

The active journal segment is skipped (the writer owns it; its tail is
legitimately in flux).  Files that vanish mid-scrub (a concurrent
checkpoint pruned them) are skipped, not flagged: pruning is the one
legal way for an at-rest file to disappear.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.framing import read_segment
from repro.core.snapshot import read_image
from repro.durability.journal import DurabilityStats, list_segments
from repro.durability.manager import list_checkpoints


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    files_checked: int = 0
    segments_ok: int = 0
    checkpoints_ok: int = 0
    failures: List[str] = field(default_factory=list)
    #: Seq of the checkpoint that repaired the failures, if one was taken.
    repaired_by: Optional[int] = None

    @property
    def clean(self) -> bool:
        return not self.failures


def scrub_directory(
    directory: str,
    active_segment: Optional[str] = None,
    stats: Optional[DurabilityStats] = None,
) -> ScrubReport:
    """Verify every at-rest segment and checkpoint; report, never move."""
    report = ScrubReport()
    active = os.path.abspath(active_segment) if active_segment else None
    files = [
        (path, read_segment) for _seq, path in list_segments(directory)
        if os.path.abspath(path) != active
    ]
    files += [(path, read_image) for _seq, path in list_checkpoints(directory)]
    for path, read in files:
        try:
            scan = read(path)
        except FileNotFoundError:
            continue  # pruned underneath us — legal
        report.files_checked += 1
        if not scan.clean:
            report.failures.append(f"{os.path.basename(path)}: {scan.error}")
        elif read is read_image:
            report.checkpoints_ok += 1
        else:
            report.segments_ok += 1

    if stats is not None:
        stats.scrub_passes += 1
        stats.scrub_files_checked += report.files_checked
        stats.scrub_failures += len(report.failures)
    return report
