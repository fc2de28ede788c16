"""HashRing properties: determinism, stability, balance."""

import pytest

from repro.cluster import ring as ring_module
from repro.cluster.ring import HashRing


def sample_keys(count):
    return [b"ring-key-%06d" % i for i in range(count)]


def sampled_shares(nodes, keys):
    """Each member's share of ``keys``, measured by routing them."""
    groups = HashRing(nodes).partition(keys)
    return {node: len(groups.get(node, [])) / len(keys) for node in nodes}


class TestOwnership:
    def test_single_node_owns_everything(self):
        ring = HashRing(["only"])
        assert all(ring.node_for(k) == "only" for k in sample_keys(100))

    def test_empty_ring_refuses(self):
        ring = HashRing()
        with pytest.raises(ValueError):
            ring.node_for(b"k")

    def test_deterministic_across_instances(self):
        # Two independently-built rings over the same member list agree
        # on every key — the property that lets separate client
        # processes route consistently with no coordination.
        a = HashRing(["node0", "node1", "node2"])
        b = HashRing(["node2", "node0", "node1"])  # insertion order differs
        for key in sample_keys(500):
            assert a.node_for(key) == b.node_for(key)

    def test_partition_preserves_per_node_order(self):
        ring = HashRing(["node0", "node1", "node2"])
        keys = sample_keys(200)
        groups = ring.partition(keys)
        assert sorted(sum(groups.values(), [])) == sorted(keys)
        order = {key: index for index, key in enumerate(keys)}
        for node_keys in groups.values():
            indices = [order[k] for k in node_keys]
            assert indices == sorted(indices)

    def test_membership_api(self):
        ring = HashRing(["a"])
        ring.add_node("b")
        assert "b" in ring and len(ring) == 2
        with pytest.raises(ValueError):
            ring.add_node("a")
        assert "c" not in ring


class TestStability:
    """The consistent-hashing contract: membership changes move ~1/N."""

    def test_add_node_moves_about_one_over_n(self):
        keys = sample_keys(4000)
        for n in (2, 3, 5):
            ring = HashRing([f"node{i}" for i in range(n)])
            before = {k: ring.node_for(k) for k in keys}
            ring.add_node(f"node{n}")
            moved = sum(1 for k in keys if ring.node_for(k) != before[k])
            expected = len(keys) / (n + 1)
            # Allow generous slack: vnode placement is hash-random.
            assert 0.4 * expected <= moved <= 1.8 * expected, (n, moved)

    def test_moves_land_only_on_the_new_node(self):
        keys = sample_keys(2000)
        ring = HashRing(["node0", "node1", "node2"])
        before = {k: ring.node_for(k) for k in keys}
        ring.add_node("node3")
        for key in keys:
            owner = ring.node_for(key)
            if owner != before[key]:
                assert owner == "node3"

    def test_remove_node_strands_only_its_keys(self):
        # Ownership is a function of the member list, so a node's removal
        # is the ring built without it.
        keys = sample_keys(2000)
        before = HashRing(["node0", "node1", "node2"])
        after = HashRing(["node0", "node2"])
        for key in keys:
            if before.node_for(key) != "node1":
                assert after.node_for(key) == before.node_for(key)


class TestBalance:
    def test_vnodes_smooth_the_split(self, monkeypatch):
        nodes = [f"node{i}" for i in range(4)]
        keys = sample_keys(6000)
        many = sampled_shares(nodes, keys)
        monkeypatch.setattr(ring_module, "VNODES", 1)
        one = sampled_shares(nodes, keys)
        # With 64 vnodes each node's share is within a few points of 1/4;
        # with 1 vnode it can be wildly off.
        assert all(0.10 <= share <= 0.45 for share in many.values())
        assert max(many.values()) - min(many.values()) < (
            max(one.values()) - min(one.values())
        )

    def test_shares_sum_to_one(self):
        nodes = [f"node{i}" for i in range(5)]
        total = sum(sampled_shares(nodes, sample_keys(2000)).values())
        assert total == pytest.approx(1.0)

    def test_keyspace_split_tracks_share(self):
        nodes = ["node0", "node1", "node2"]
        for share in sampled_shares(nodes, sample_keys(6000)).values():
            assert share == pytest.approx(1 / 3, abs=0.07)
