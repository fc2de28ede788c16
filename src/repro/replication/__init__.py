"""Journal-shipping replication: primary/replica pairs over the WAL.

The PR 6 write-ahead journal is already a total order of acknowledged
mutations; this package ships it.  See :mod:`repro.replication.wire` for
the frame protocol, :mod:`repro.replication.source` for the primary's
sender (tail the journal file, or snapshot resync), and
:mod:`repro.replication.replica` for the applying side, lag tracking,
and consensus-free promotion.
"""

from repro.replication.replica import ReplicationClient
from repro.replication.source import ReplicationSource
from repro.replication.stats import ReplicationStats
from repro.replication.tailer import JournalTailer, SegmentPrunedError

__all__ = [
    "JournalTailer",
    "ReplicationClient",
    "ReplicationSource",
    "ReplicationStats",
    "SegmentPrunedError",
]
