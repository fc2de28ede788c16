"""Counters for both ends of the replication stream.

One dataclass serves primary and replica roles (a promoted replica keeps
its history, and a primary that also feeds a downstream tier uses both
halves).  :meth:`ReplicationStats.bind_metrics` mounts it into the
metrics registry as ``replication``, so it crosses the memcached
``stats`` wire as ``replication_*`` keys — always present, zero-valued
when replication is off.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ReplicationStats:
    # -- primary side (sending) ------------------------------------------------
    records_sent: int = 0
    bytes_sent: int = 0
    snapshots_sent: int = 0
    heartbeats_sent: int = 0
    acks_received: int = 0
    replica_connects: int = 0
    #: A replica's socket would not drain within the write timeout; the
    #: connection was cut rather than buffering unboundedly.
    slow_replica_drops: int = 0
    # -- replica side (applying) -----------------------------------------------
    records_applied: int = 0
    bytes_applied: int = 0
    snapshots_applied: int = 0
    heartbeats_received: int = 0
    acks_sent: int = 0
    source_connects: int = 0
    #: Records the cache refused (capacity, oversized item); counted, not
    #: fatal — the replica serves what fits, like any cache.
    apply_errors: int = 0
    #: The primary went silent past the silence timeout on an otherwise
    #: open connection (half-open link); the replica cut it to re-dial.
    silent_link_drops: int = 0
    # -- serving-policy outcomes -----------------------------------------------
    lagging_rejects: int = 0
    read_only_rejects: int = 0
    promotions: int = 0
    catch_up_records: int = 0

    def bind_metrics(self, registry, client, source) -> None:
        """Mount the counters, plus the live state of the two stream ends.

        ``client()`` / ``source()`` return the running ``ReplicationClient``
        / ``ReplicationSource`` or None (a promoted replica drops its
        client); an end that is not up reads 0, so every role has every name.
        """
        registry.mount("replication", self)
        for name, end, read, help, timing in (
            ("connected", client, lambda c: int(c.connected),
             "replica: the stream from the primary is open", False),
            ("lag_bytes", client, lambda c: c.lag_bytes(),
             "replica: primary history not yet applied here", False),
            # Timing: compares the last contact against the wall clock.
            ("pressure", client, lambda c: c.pressure_level(),
             "replica: 0 fresh, 1 sheds Z-zone GETs, 2 sheds every GET", True),
            ("replicas_connected", source, lambda s: s.replicas_connected,
             "primary: replicas streaming now", False),
            ("max_replica_lag_bytes", source, lambda s: s.max_replica_lag_bytes,
             "primary: unacknowledged bytes of the replica furthest behind",
             False),
        ):

            def value(end=end, read=read):
                live = end()
                return 0 if live is None else read(live)

            registry.view(f"replication_{name}", value, help, timing=timing)
