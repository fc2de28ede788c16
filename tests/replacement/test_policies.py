"""Cross-policy behavioural tests for every replacement simulator."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.replacement import (
    ARCCache,
    LIRSCache,
    LRUCache,
    LRUXCache,
    RandomCache,
)

POLICY_FACTORIES = {
    "lru": lambda cap: LRUCache(cap),
    "random": lambda cap: RandomCache(cap, seed=1),
    "arc": lambda cap: ARCCache(cap),
    "lirs": lambda cap: LIRSCache(cap),
    "lrux": lambda cap: LRUXCache(cap, base_capacity=max(1, cap // 2), seed=1),
}


@pytest.fixture(params=sorted(POLICY_FACTORIES))
def policy_name(request):
    return request.param


class TestAllPolicies:
    def test_miss_then_hit(self, policy_name):
        cache = POLICY_FACTORIES[policy_name](1000)
        assert cache.access(1, 100) is False
        assert cache.access(1, 100) is True

    def test_contains_no_side_effects(self, policy_name):
        cache = POLICY_FACTORIES[policy_name](1000)
        cache.access(1, 100)
        assert 1 in cache
        assert 2 not in cache

    def test_delete(self, policy_name):
        cache = POLICY_FACTORIES[policy_name](1000)
        cache.access(1, 100)
        assert cache.delete(1) is True
        assert cache.delete(1) is False
        assert 1 not in cache

    def test_capacity_respected(self, policy_name):
        cache = POLICY_FACTORIES[policy_name](500)
        for key in range(50):
            cache.access(key, 60)
            assert cache.used_bytes <= 500
        cache.check_invariants()

    def test_oversized_item_not_admitted(self, policy_name):
        cache = POLICY_FACTORIES[policy_name](100)
        assert cache.access(1, 200) is False
        assert 1 not in cache
        cache.check_invariants()

    def test_resize_on_reaccess(self, policy_name):
        cache = POLICY_FACTORIES[policy_name](1000)
        cache.access(1, 100)
        assert cache.access(1, 300) is True
        assert cache.resident_sizes()[1] == 300
        cache.check_invariants()

    def test_invalid_size_rejected(self, policy_name):
        cache = POLICY_FACTORIES[policy_name](100)
        with pytest.raises(ValueError):
            cache.access(1, 0)

    def test_invalid_capacity_rejected(self, policy_name):
        with pytest.raises(ValueError):
            POLICY_FACTORIES[policy_name](0)

    def test_eviction_happens_under_pressure(self, policy_name):
        cache = POLICY_FACTORIES[policy_name](300)
        for key in range(10):
            cache.access(key, 100)
        resident = cache.resident_sizes()
        assert 1 <= len(resident) <= 3
        cache.check_invariants()

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["access", "delete"]),
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=1, max_value=120),
            ),
            max_size=200,
        )
    )
    @settings(
        max_examples=30,
        deadline=None,
        # The fixture only selects a factory name; a fresh cache is built
        # inside each example, so reuse across examples is safe.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_ops_keep_invariants(self, policy_name, ops):
        cache = POLICY_FACTORIES[policy_name](600)
        for op, key, size in ops:
            if op == "access":
                cache.access(key, size)
            else:
                cache.delete(key)
        cache.check_invariants()
        assert cache.used_bytes <= 600
