"""Serving layer: memcached-protocol server, admission, client.

The package turns the library cache into an operable network service.
``repro.server`` holds the asyncio front-end (:class:`CacheServer`), the
admission controller with its overload state machine, and a pooled
client with deadlines and jittered retries.  The tooling that *tests* a
server — the load generator (``repro.server.loadgen``), the campaigns
(``.chaos``, ``.crash``, ``.replchaos``) and the harness kit under them
— is imported by module path, never through this package, so a serving
process does not load it.
"""

from repro.server.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionStats,
    ServerState,
    TickClock,
    TokenBucket,
)
from repro.server.client import (
    MemcacheClient,
    RetryPolicy,
)
from repro.server.meta import ItemMetaStore
from repro.server.protocol import (
    MAX_VALUE_BYTES,
    EXPTIME_ABSOLUTE_THRESHOLD,
    MAX_KEY_BYTES,
    BadCommand,
    Command,
    RequestParser,
    valid_key,
)
from repro.server.server import TICK_SECONDS, CacheServer, ServerConfig, ServerStats

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionStats",
    "BadCommand",
    "CacheServer",
    "Command",
    "MAX_VALUE_BYTES",
    "EXPTIME_ABSOLUTE_THRESHOLD",
    "ItemMetaStore",
    "MAX_KEY_BYTES",
    "MemcacheClient",
    "RequestParser",
    "RetryPolicy",
    "ServerConfig",
    "ServerState",
    "ServerStats",
    "TICK_SECONDS",
    "TickClock",
    "TokenBucket",
    "valid_key",
]
