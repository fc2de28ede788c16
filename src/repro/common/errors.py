"""Exception hierarchy for the zExpander reproduction.

All library errors derive from :class:`CacheError` so callers can catch one
base class.  Programming errors (wrong types, impossible arguments) raise the
built-in ``ValueError``/``TypeError`` instead.
"""


class CacheError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(CacheError, ValueError):
    """An invalid or inconsistent configuration (also a ValueError)."""


class CapacityError(CacheError):
    """An operation could not complete within the configured byte budget."""


class ItemTooLargeError(CapacityError):
    """A single KV item exceeds what the target structure can ever store."""

    def __init__(self, key: bytes, item_size: int, limit: int) -> None:
        super().__init__(
            f"item {key!r} of {item_size} B exceeds the structure limit of {limit} B"
        )
        self.key = key
        self.item_size = item_size
        self.limit = limit


class IntegrityError(CacheError):
    """Stored data failed an integrity check (checksum, codec, round-trip).

    The Z-zone treats every :class:`IntegrityError` as block damage: the
    affected block is quarantined, its items become counted misses, and
    serving continues — integrity failures must never crash the cache.
    """


class CorruptionDetectedError(IntegrityError):
    """A block's payload checksum did not match its stored checksum."""

    def __init__(self, expected: int, actual: int) -> None:
        super().__init__(
            f"payload checksum mismatch: stored {expected:#010x}, "
            f"computed {actual:#010x}"
        )
        self.expected = expected
        self.actual = actual


class CodecError(IntegrityError, ValueError):
    """A codec raised or produced bytes that cannot be the original data.

    Also a :class:`ValueError` so pre-existing callers that treated corrupt
    containers as value errors keep working unchanged.
    """


class FaultPlanError(ConfigurationError):
    """A fault-injection plan is malformed (unknown site, bad rates)."""


class ServingError(CacheError):
    """Base class for errors raised by the serving layer (:mod:`repro.server`).

    These are *operational* conditions, not cache defects: a healthy
    client is expected to catch them and retry (with backoff), fail over,
    or surface the condition to its own caller.
    """


class ServerOverloadedError(ServingError):
    """The server shed the request (``SERVER_ERROR overloaded``).

    Raised client-side when the admission controller refuses work instead
    of queuing it unboundedly.  Retrying immediately makes the overload
    worse; the pooled client retries with exponential backoff + jitter.
    """


class RequestTimeoutError(ServingError, TimeoutError):
    """A request missed its client-side deadline.

    Also a built-in :class:`TimeoutError` so generic timeout handling
    (``except TimeoutError``) keeps working.
    """


class ConnectionDrainingError(ServingError):
    """The server is draining (``SERVER_ERROR draining``) and will exit.

    New work is refused while inflight requests finish; clients should
    reconnect elsewhere (or wait for the replacement process).
    """


class ProtocolError(ServingError):
    """The peer sent bytes that do not parse as memcached text protocol."""


class ReplicaLaggingError(ServingError):
    """A replica refused a read because its lag exceeds the advertised bound
    (``SERVER_ERROR lagging``).

    Clients with more than one endpoint should fail over to another
    replica or to the primary; serving the read here could violate the
    staleness bound the deployment promised.
    """


class ReadOnlyReplicaError(ServingError):
    """A write was sent to a read-replica (``SERVER_ERROR read-only replica``).

    Replicas apply mutations only from the primary's journal stream;
    clients must direct writes at the primary (or promote the replica
    first).
    """


class ReplicationError(ServingError):
    """The replication stream is malformed (framing, CRC, or handshake)."""


class NodeDownError(ServingError):
    """The node owning a key is unreachable and the client was configured
    to surface that (``on_node_down="error"``) rather than degrade the
    read to a miss."""


class DurabilityError(CacheError):
    """Base class for errors raised by the durability layer.

    Recovery paths never let these escape to a crash: a damaged journal
    segment or checkpoint is truncated or quarantined and counted, and
    the cache starts with whatever prefix of history survived.
    """


class JournalError(DurabilityError):
    """A journal segment is malformed (bad magic, framing, or CRC)."""
