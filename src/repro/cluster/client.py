"""Ring-routed client: one cache namespace over N independent servers.

A :class:`ClusterClient` fronts N single-node servers (each a plain
``cli serve`` process — no inter-node protocol) with the consistent-hash
ring from :mod:`repro.cluster.ring`.  Every key has exactly one owner;
the client routes each operation there over that node's own pooled
:class:`~repro.server.client.MemcacheClient` (deadlines, jittered
retry, pool recycling all inherited).

``get_many`` splits the request into per-node multigets, issues them
**concurrently**, and reassembles the found values — callers see one
logical multiget whose latency is the slowest involved node, not the
sum.  Order is preserved where it matters: each node receives its keys
in the caller's relative order, and the merged dict is keyed, so
reassembly is order-independent by construction.

When a node is down the behaviour is the caller's policy:

* ``on_node_down="error"`` (default) — reads raise
  :class:`~repro.common.errors.NodeDownError` carrying the node id, so
  a harness can distinguish "cache miss" from "shard unreachable".
* ``on_node_down="miss"`` — reads on the dead node's keys degrade to
  misses (the memcached deployment posture: a dead shard is a cold
  shard) and ``node_down_misses`` counts them.

Writes always raise: degrading a SET/DELETE to a no-op would silently
drop acknowledged state, which no policy should permit.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import NodeDownError, ProtocolError, ServingError
from repro.server.client import MemcacheClient, RetryPolicy

Address = Tuple[str, int]

#: Conditions that mean "the node is unreachable or refusing", and the
#: on_node_down policy applies.  ProtocolError (a ServingError subclass)
#: is re-raised before the policy applies: a malformed exchange is a
#: bug, not an outage, and degrading it to a miss would mask it.
_NODE_DOWN_ERRORS = (
    ConnectionError,
    OSError,
    EOFError,
    asyncio.IncompleteReadError,
    ServingError,
)


def _reraise_bugs(exc: BaseException) -> None:
    if isinstance(exc, ProtocolError):
        raise exc


class ClusterClient:
    """Consistent-hash routing over independent cache nodes."""

    def __init__(
        self,
        nodes: Dict[str, Address],
        *,
        on_node_down: str = "error",
        pool_size: int = 2,
        deadline: float = 2.0,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        from repro.cluster.ring import HashRing

        if not nodes:
            raise ValueError("need at least one node")
        if on_node_down not in ("error", "miss"):
            raise ValueError(
                f"on_node_down must be 'error' or 'miss', got {on_node_down!r}"
            )
        self.on_node_down = on_node_down
        self.ring = HashRing(sorted(nodes))
        rng = rng if rng is not None else random.Random()
        self._clients: Dict[str, MemcacheClient] = {
            node_id: MemcacheClient(
                host=host,
                port=port,
                pool_size=pool_size,
                deadline=deadline,
                retry=retry,
                rng=rng,
            )
            for node_id, (host, port) in nodes.items()
        }
        #: Observability for tests and the chaos harness.
        self.node_down_misses = 0
        self.per_node_requests: Dict[str, int] = {
            node_id: 0 for node_id in nodes
        }

    # -- topology --------------------------------------------------------------

    def node_for(self, key: bytes) -> str:
        """The id of the node this client would route ``key`` to."""
        return self.ring.node_for(key)

    def client_for(self, node_id: str) -> MemcacheClient:
        """The underlying per-node client (chaos probes use this)."""
        return self._clients[node_id]

    async def close(self) -> None:
        for client in self._clients.values():
            await client.close()

    # -- reads -----------------------------------------------------------------

    async def get(self, key: bytes) -> Optional[bytes]:
        values = await self.get_many([key])
        return values.get(key)

    async def get_many(self, keys: Sequence[bytes]) -> Dict[bytes, bytes]:
        """Multiget across shards; absent keys are missing from the result."""
        if not keys:
            return {}
        groups = self.ring.partition(keys)

        async def fetch(node_id: str, node_keys: List[bytes]):
            self.per_node_requests[node_id] += 1
            try:
                return await self._clients[node_id].get_many(node_keys)
            except _NODE_DOWN_ERRORS as exc:
                _reraise_bugs(exc)
                if self.on_node_down == "miss":
                    self.node_down_misses += len(node_keys)
                    return {}
                raise NodeDownError(
                    f"node {node_id} unreachable for {len(node_keys)} "
                    f"key(s): {exc}"
                ) from exc

        ordered = sorted(groups)  # deterministic task order per member set
        results = await asyncio.gather(
            *(fetch(node_id, groups[node_id]) for node_id in ordered)
        )
        merged: Dict[bytes, bytes] = {}
        for per_node in results:
            merged.update(per_node)
        return merged

    async def gets(self, key: bytes) -> Optional[Tuple[bytes, int]]:
        node_id = self.ring.node_for(key)
        self.per_node_requests[node_id] += 1
        try:
            return await self._clients[node_id].gets(key)
        except _NODE_DOWN_ERRORS as exc:
            _reraise_bugs(exc)
            if self.on_node_down == "miss":
                self.node_down_misses += 1
                return None
            raise NodeDownError(f"node {node_id} unreachable: {exc}") from exc

    # -- writes (never degraded) -----------------------------------------------

    async def set(
        self, key: bytes, value: bytes, ttl: float = 0.0, flags: int = 0
    ) -> bool:
        node_id = self.ring.node_for(key)
        self.per_node_requests[node_id] += 1
        try:
            return await self._clients[node_id].set(key, value, ttl, flags)
        except _NODE_DOWN_ERRORS as exc:
            _reraise_bugs(exc)
            raise NodeDownError(f"node {node_id} unreachable: {exc}") from exc

    async def cas(
        self,
        key: bytes,
        value: bytes,
        token: int,
        ttl: float = 0.0,
        flags: int = 0,
    ) -> Optional[bool]:
        node_id = self.ring.node_for(key)
        self.per_node_requests[node_id] += 1
        try:
            return await self._clients[node_id].cas(key, value, token, ttl, flags)
        except _NODE_DOWN_ERRORS as exc:
            _reraise_bugs(exc)
            raise NodeDownError(f"node {node_id} unreachable: {exc}") from exc

    async def delete(self, key: bytes) -> bool:
        node_id = self.ring.node_for(key)
        self.per_node_requests[node_id] += 1
        try:
            return await self._clients[node_id].delete(key)
        except _NODE_DOWN_ERRORS as exc:
            _reraise_bugs(exc)
            raise NodeDownError(f"node {node_id} unreachable: {exc}") from exc
