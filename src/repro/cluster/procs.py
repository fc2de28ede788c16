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
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.rng import derive_seed
from repro.harness import ServeChild, journalled_argv


@dataclass
class ClusterNodeConfig:
    """Everything one serve child needs; built by :class:`ClusterConfig`."""

    node_id: str
    index: int
    seed: int
    journal_dir: str
    host: str = "127.0.0.1"
    capacity: int = 8 * 1024 * 1024
    shards: int = 2
    fsync: str = "always"
    segment_bytes: int = 1 << 20
    checkpoint_bytes: int = 4 << 20
    start_timeout: float = 30.0
    extra_args: Tuple[str, ...] = ()


@dataclass
class ClusterConfig:
    """One homogeneous N-node cluster."""

    nodes: int = 3
    seed: int = 0
    workdir: str = ""
    host: str = "127.0.0.1"
    capacity: int = 8 * 1024 * 1024
    shards: int = 2
    fsync: str = "always"
    segment_bytes: int = 1 << 20
    checkpoint_bytes: int = 4 << 20
    start_timeout: float = 30.0
    extra_args: Tuple[str, ...] = ()

    def validate(self) -> None:
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if not self.workdir:
            raise ValueError("workdir is required")
        if self.fsync not in ("always", "interval", "never"):
            raise ValueError(f"unknown fsync policy {self.fsync!r}")

    def node_config(self, index: int) -> ClusterNodeConfig:
        node_id = f"node{index}"
        return ClusterNodeConfig(
            node_id=node_id,
            index=index,
            seed=derive_seed(self.seed, f"cluster-{node_id}"),
            journal_dir=os.path.join(self.workdir, node_id, "journal"),
            host=self.host,
            capacity=self.capacity,
            shards=self.shards,
            fsync=self.fsync,
            segment_bytes=self.segment_bytes,
            checkpoint_bytes=self.checkpoint_bytes,
            start_timeout=self.start_timeout,
            extra_args=self.extra_args,
        )


class NodeProcess(ServeChild):
    """One fleet member: a serve child that rebinds its learned port."""

    def __init__(self, config: ClusterNodeConfig) -> None:
        super().__init__(
            [], config.start_timeout, name=f"node {config.node_id}"
        )
        self.config = config
        self.node_id = config.node_id

    @property
    def address(self) -> Tuple[str, int]:
        assert self.port is not None, "node not started"
        return (self.config.host, self.port)

    async def start(self) -> int:
        """Spawn the child; first start binds ``--port 0`` and learns the
        port, restarts rebind the learned port — so the cluster's address
        book survives kill/restart cycles — retrying briefly in case the
        dead process's socket lingers in TIME_WAIT."""
        config = self.config
        retries = 0 if self.port is None else 9
        self.argv = [
            "--host", config.host,
            *journalled_argv(
                self.port or 0, config.seed, config.capacity, config.shards,
                config.journal_dir, config.fsync, config.segment_bytes,
                config.checkpoint_bytes,
            ),
            *config.extra_args,
        ]
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
            NodeProcess(config.node_config(index))
            for index in range(config.nodes)
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
            if node.proc is None:
                continue
            if node.alive:
                codes[node.node_id] = await node.drain()
            else:
                codes[node.node_id] = (
                    node.proc.returncode
                    if node.proc.returncode is not None
                    else -1
                )
        return codes

    async def terminate(self) -> None:
        """SIGKILL everything still running (cleanup path, not graceful)."""
        for node in self.nodes:
            if node.alive:
                await node.kill()
