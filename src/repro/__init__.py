"""zExpander reproduction — a two-zone key-value cache.

Reimplementation of *zExpander: a Key-Value Cache with both High
Performance and Fewer Misses* (Wu et al., EuroSys 2016), including every
substrate the paper's evaluation depends on: a memcached behavioural
model, a MemC3-style cuckoo+CLOCK cache, replacement-policy simulators
(LRU/LIRS/ARC/LRU-X), an LZ4 block codec, workload synthesisers for the
Facebook/YCSB traces, and a calibrated performance model.

Quickstart::

    from repro import ZExpander, ZExpanderConfig

    cache = ZExpander(ZExpanderConfig(total_capacity=64 * 1024 * 1024))
    cache.set(b"user:42", b"value bytes")
    assert cache.get(b"user:42") == b"value bytes"

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.common.clock import VirtualClock
from repro.common.errors import (
    CacheError,
    CapacityError,
    CodecError,
    ConfigurationError,
    ConnectionDrainingError,
    DurabilityError,
    FaultPlanError,
    IntegrityError,
    ItemTooLargeError,
    JournalError,
    ProtocolError,
    ReadOnlyReplicaError,
    ReplicaLaggingError,
    ReplicationError,
    RequestTimeoutError,
    ServerOverloadedError,
    ServingError,
)
from repro.common.records import KVItem
from repro.common.units import GB, KB, MB, format_bytes
from repro.core import (
    ShardedZExpander,
    SimpleKVCache,
    ZExpander,
    ZExpanderConfig,
    ZExpanderStats,
    load_snapshot,
    write_snapshot,
)
from repro.compression import (
    LZ4Compressor,
    ModelCompressor,
    NullCompressor,
    ZlibCompressor,
)
from repro.durability import (
    DurabilityConfig,
    DurabilityManager,
    DurabilityStats,
    JournalConfig,
    JournalWriter,
    RecoveryResult,
    replay_journal,
    scrub_directory,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from repro.nzone import HPCacheZone, MemcachedZone
from repro.zzone import ZZone

__version__ = "1.0.0"


def __getattr__(name: str):
    # The trace replayer pulls in the workload generators and numpy; a
    # serving process never replays, so it is imported on first use.
    if name == "replay_trace":
        from repro.core.replay import replay_trace

        return replay_trace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "GB",
    "KB",
    "MB",
    "CacheError",
    "CapacityError",
    "CodecError",
    "ConfigurationError",
    "ConnectionDrainingError",
    "Counter",
    "DurabilityConfig",
    "DurabilityError",
    "DurabilityManager",
    "DurabilityStats",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "Gauge",
    "HPCacheZone",
    "Histogram",
    "IntegrityError",
    "ItemTooLargeError",
    "JournalConfig",
    "JournalError",
    "JournalWriter",
    "KVItem",
    "LZ4Compressor",
    "MemcachedZone",
    "MetricsRegistry",
    "ModelCompressor",
    "NullCompressor",
    "ProtocolError",
    "RecoveryResult",
    "ReadOnlyReplicaError",
    "ReplicaLaggingError",
    "ReplicationError",
    "RequestTimeoutError",
    "ServerOverloadedError",
    "ServingError",
    "ShardedZExpander",
    "SimpleKVCache",
    "VirtualClock",
    "ZExpander",
    "ZExpanderConfig",
    "ZExpanderStats",
    "ZZone",
    "ZlibCompressor",
    "format_bytes",
    "load_snapshot",
    "log_buckets",
    "replay_journal",
    "replay_trace",
    "scrub_directory",
    "write_snapshot",
    "__version__",
]
