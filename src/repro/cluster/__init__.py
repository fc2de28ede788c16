"""Multi-process cluster tier: consistent hashing over independent nodes.

Like a memcached fleet, the cluster has no inter-node protocol — each
node is a plain single-process server and all routing intelligence lives
in the client.  :mod:`repro.cluster.ring` provides the stable
consistent-hash ring (virtual nodes, minimal movement on membership
change); :mod:`repro.cluster.client` routes single-key operations to
their owner and fans multigets out per node; :mod:`repro.cluster.procs`
spawns and supervises N ``cli serve`` children with disjoint ports and
journal directories; :mod:`repro.cluster.chaos` is the node-kill
campaign that proves the whole arrangement degrades by arcs and
recovers without losing acknowledged writes.
"""

from repro.cluster.chaos import (
    ClusterChaosConfig,
    ClusterChaosReport,
    run_cluster_chaos,
)
from repro.cluster.client import ClusterClient
from repro.cluster.procs import (
    ClusterConfig,
    ClusterSupervisor,
    NodeProcess,
)
from repro.cluster.ring import HashRing, VNODES

__all__ = [
    "ClusterChaosConfig",
    "ClusterChaosReport",
    "ClusterClient",
    "ClusterConfig",
    "ClusterSupervisor",
    "HashRing",
    "NodeProcess",
    "VNODES",
    "run_cluster_chaos",
]
