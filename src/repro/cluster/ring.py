"""Consistent-hash ring: stable key ownership across a node set.

The ring places ``VNODES`` virtual points per node on a 64-bit circle
(the same BLAKE2b :func:`~repro.common.hashing.hash_key` the Z-zone trie
uses, so placement is stable across platforms and interpreter runs) and
routes each key to the first point clockwise from the key's hash.

Properties the cluster tier leans on:

* **Determinism** — ownership is a pure function of ``(node_ids,
  VNODES, key)``.  Two processes that agree on the member list agree on
  every key's owner; the chaos harness exploits this to assert that no
  key is ever served by two live nodes.
* **Minimal movement** — adding a node steals ~``1/(N+1)`` of the
  keyspace from the existing N nodes and nothing else moves (tested as
  a property: see ``tests/cluster/test_ring.py``).
* **Virtual nodes smooth the split** — with one point per node the
  largest arc is typically several times the smallest; 64+ points per
  node brings per-node load within a few percent of even.

Node ids are free-form strings (``"node0"``, ``"host:port"``); the ring
never interprets them beyond hashing ``b"<id>#<replica>"``.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Set, Tuple

from repro.common.hashing import hash_key

#: Virtual points per node: enough that per-node keyspace share is
#: within a few percent of 1/N for small clusters.
VNODES = 64


class HashRing:
    """Consistent-hash ring over string node ids."""

    def __init__(self, node_ids: Sequence[str] = ()) -> None:
        self._points: List[Tuple[int, str]] = []
        self._hashes: List[int] = []
        self._nodes: Set[str] = set()
        for node_id in node_ids:
            self.add_node(node_id)

    # -- membership ------------------------------------------------------------

    def add_node(self, node_id: str) -> None:
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already on the ring")
        for replica in range(VNODES):
            point = hash_key(f"{node_id}#{replica}".encode("utf-8"))
            # A 64-bit collision between distinct (node, replica) labels
            # is ~impossible; ties are broken by node id so insertion
            # order can never change ownership.
            bisect.insort(self._points, (point, node_id))
        self._nodes.add(node_id)
        self._hashes = [point for point, _node in self._points]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    # -- routing ---------------------------------------------------------------

    def node_for(self, key: bytes) -> str:
        """Return the id of the node owning ``key``."""
        if not self._points:
            raise ValueError("ring has no nodes")
        index = bisect.bisect_right(self._hashes, hash_key(key))
        if index == len(self._points):
            index = 0  # wrap: first point clockwise from the top
        return self._points[index][1]

    def partition(self, keys: Sequence[bytes]) -> Dict[str, List[bytes]]:
        """Group ``keys`` by owning node, preserving per-node key order."""
        out: Dict[str, List[bytes]] = {}
        for key in keys:
            out.setdefault(self.node_for(key), []).append(key)
        return out
