"""LIRS-specific tests."""

from repro.replacement import LIRSCache, LRUCache


class TestLIRS:
    def test_cold_start_fills_lir(self):
        cache = LIRSCache(1000)
        cache.access(1, 400)
        cache.access(2, 400)
        assert 1 in cache and 2 in cache

    def test_hir_item_evicted_before_lir(self):
        cache = LIRSCache(10_000)
        # Fill the LIR partition (9,900 B beside a 100 B HIR partition).
        cache.access(1, 4950)
        cache.access(2, 4950)
        # These go to HIR (resident).
        cache.access(3, 60)
        cache.access(4, 60)  # pressure evicts HIR front (3), not LIR
        assert 1 in cache and 2 in cache

    def test_reused_hir_promotes_over_stale_lir(self):
        cache = LIRSCache(10_000)
        cache.access(1, 4950)
        cache.access(2, 4950)  # LIR partition filled (9,900 B budget)
        cache.access(3, 50)  # HIR
        cache.access(3, 50)  # re-referenced while in S: promote to LIR
        assert 3 in cache

    def test_loop_workload_beats_lru(self):
        """LIRS's signature: cyclic access slightly larger than the cache."""

        def run(cache):
            hits = 0
            for _round in range(30):
                for key in range(12):  # 1200 B loop > 1000 B cache
                    hits += cache.access(key, 100)
            return hits

        lirs_hits = run(LIRSCache(1000))
        lru_hits = run(LRUCache(1000))
        assert lirs_hits > lru_hits

    def test_ghost_bound_holds(self):
        cache = LIRSCache(500)
        for key in range(5000):
            cache.access(key, 50)
        resident = len(cache.resident_sizes())
        assert cache._ghost_count <= max(64, int(2.0 * resident)) + 5

    def test_delete_lir_and_hir(self):
        cache = LIRSCache(1000)
        cache.access(1, 400)
        cache.access(2, 400)
        cache.access(3, 100)
        assert cache.delete(1)
        assert cache.delete(3)
        assert not cache.delete(99)
        cache.check_invariants()
