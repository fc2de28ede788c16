"""Cluster supervisor: N independent ``cli serve`` children, one ring.

The cluster tier deliberately has no inter-node protocol — exactly like
a memcached fleet, the nodes never talk to each other and all smarts
live in the client's ring.  What the supervisor provides is the
operational discipline around that:

* **Disjoint resources** — every node gets its own port (bound by the
  child itself via ``--port 0``, so no TOCTOU race on free ports) and
  its own journal directory (``<workdir>/node<i>/journal``); nothing is
  shared, so one node's crash or corruption cannot reach another's
  state.
* **Shared seed discipline** — node *i* runs with seed
  ``derive_seed(cluster_seed, "cluster-node<i>")``: per-node streams are
  independent but the whole fleet is a pure function of one seed.
* **Stable identity across restarts** — a node's id (``node<i>``) and
  journal directory never change, and a restart rebinds the port the
  node first learned, so the client's ring (keyed by node id) and its
  address book both stay valid across a SIGKILL/restart cycle.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.rng import derive_seed
from repro.harness import CHILD_TIMEOUTS, ServeChild


@dataclass
class ClusterConfig:
    """One homogeneous N-node cluster."""

    nodes: int = 3
    seed: int = 0
    workdir: str = ""
    host: str = "127.0.0.1"
    #: ``cli serve`` settings every node shares, by flag name (``host``,
    #: ``port``, ``seed`` and ``journal_dir`` are each node's own).
    serve: Dict[str, object] = field(default_factory=dict)

    def validate(self) -> None:
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if not self.workdir:
            raise ValueError("workdir is required")


class NodeProcess(ServeChild):
    """One fleet member: a serve child that rebinds its learned port."""

    def __init__(self, config: ClusterConfig, index: int) -> None:
        self.node_id = f"node{index}"
        super().__init__(
            {
                **CHILD_TIMEOUTS,
                **config.serve,
                "host": config.host,
                "seed": derive_seed(config.seed, f"cluster-{self.node_id}"),
                "journal_dir": os.path.join(
                    config.workdir, self.node_id, "journal"
                ),
            },
            name=f"node {self.node_id}",
        )

    @property
    def address(self) -> Tuple[str, int]:
        assert self.port is not None, "node not started"
        return (self.settings["host"], self.port)

    async def start(self) -> int:
        """Spawn the child.  The first start binds port 0 and learns the
        port; a restart rebinds the learned one, so the cluster's address
        book survives kill/restart cycles — retrying briefly in case the
        dead process's socket lingers in TIME_WAIT."""
        retries = 0 if self.port is None else 9
        self.settings["port"] = self.port or 0
        for _retry in range(retries):
            try:
                return await super().start()
            except RuntimeError:
                await asyncio.sleep(0.2)
        return await super().start()


class ClusterSupervisor:
    """Spawn and manage the fleet; the address book for clients."""

    def __init__(self, config: ClusterConfig) -> None:
        config.validate()
        self.config = config
        self.nodes: List[NodeProcess] = [
            NodeProcess(config, index) for index in range(config.nodes)
        ]

    async def start(self) -> Dict[str, Tuple[str, int]]:
        """Start every node (concurrently) and return the address book."""
        await asyncio.gather(*(node.start() for node in self.nodes))
        return self.addresses()

    def addresses(self) -> Dict[str, Tuple[str, int]]:
        return {node.node_id: node.address for node in self.nodes}

    def node(self, node_id: str) -> NodeProcess:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise KeyError(node_id)

    async def stop(self) -> Dict[str, int]:
        """Drain every live node; returns node id -> exit code."""
        codes: Dict[str, int] = {}
        for node in self.nodes:
            if node.alive:
                codes[node.node_id] = await node.drain()
            elif node.proc is not None:
                codes[node.node_id] = node.proc.returncode
        return codes

    async def terminate(self) -> None:
        """SIGKILL everything still running (cleanup path, not graceful)."""
        for node in self.nodes:
            if node.alive:
                await node.kill()
