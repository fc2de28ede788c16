"""Crash-consistent durability: write-ahead journal + checkpoints + scrub.

The cache itself is volatile by design; this package makes its contents
survive anything up to and including ``kill -9`` and power loss, with a
loss bound chosen by fsync policy:

* :mod:`repro.durability.journal` — append-only segments of CRC-framed
  records (:mod:`repro.common.framing`) that every acknowledged
  SET/DELETE writes through before the ack.
* :mod:`repro.durability.manager` — incremental checkpoints (a cache
  image in the same record format, sealed by its end record; one file
  per checkpoint), point-in-time recovery
  (checkpoint + replay), pruning, and the :class:`DurabilityManager`
  that owns a directory.
* :mod:`repro.durability.scrub` — background re-verification of at-rest
  files, reporting rot the manager repairs by a checkpoint of the store.

See DESIGN.md §10 for the format, the recovery ordering argument, and
the per-policy loss bounds.
"""

from repro.durability.journal import (
    DurabilityStats,
    JournalConfig,
    JournalWriter,
    list_segments,
)
from repro.durability.manager import (
    DurabilityConfig,
    DurabilityManager,
    RecoveryResult,
    list_checkpoints,
    replay_journal,
)
from repro.durability.scrub import ScrubReport, scrub_directory

__all__ = [
    "DurabilityConfig",
    "DurabilityManager",
    "DurabilityStats",
    "JournalConfig",
    "JournalWriter",
    "RecoveryResult",
    "ScrubReport",
    "list_checkpoints",
    "list_segments",
    "replay_journal",
    "scrub_directory",
]
