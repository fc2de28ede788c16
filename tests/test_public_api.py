"""The package's public surface: everything advertised exists and works."""

import repro


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        major, _minor, _patch = repro.__version__.split(".")
        assert int(major) >= 1

    def test_units(self):
        assert repro.GB == repro.MB * 1024 == repro.KB * 1024 * 1024

    def test_readme_quickstart_works(self):
        cache = repro.ZExpander(
            repro.ZExpanderConfig(total_capacity=4 * repro.MB)
        )
        cache.set(b"user:42", b"value bytes")
        cache.set(b"session:9", b"served until evicted")
        assert cache.get(b"user:42") == b"value bytes"
        cache.delete(b"user:42")
        assert cache.stats.miss_ratio == 0.0
        assert cache.zzone.block_count >= 1

    def test_subpackage_alls_resolve(self):
        import repro.analysis
        import repro.cluster
        import repro.compression
        import repro.core
        import repro.durability
        import repro.faults
        import repro.memory
        import repro.nzone
        import repro.replacement
        import repro.server
        import repro.sim
        import repro.workloads
        import repro.zzone

        for module in (
            repro.analysis,
            repro.cluster,
            repro.compression,
            repro.core,
            repro.durability,
            repro.faults,
            repro.memory,
            repro.nzone,
            repro.replacement,
            repro.server,
            repro.sim,
            repro.workloads,
            repro.zzone,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_exception_hierarchy(self):
        """One base class catches everything; subtypes slot in sensibly."""
        exported = (
            repro.CacheError,
            repro.ConfigurationError,
            repro.CapacityError,
            repro.ItemTooLargeError,
            repro.IntegrityError,
            repro.CodecError,
            repro.FaultPlanError,
        )
        for exc in exported:
            assert issubclass(exc, repro.CacheError), exc
        assert issubclass(repro.ItemTooLargeError, repro.CapacityError)
        assert issubclass(repro.CodecError, repro.IntegrityError)
        # Backward compat: corrupt-container callers catch ValueError.
        assert issubclass(repro.CodecError, ValueError)
        assert issubclass(repro.FaultPlanError, repro.ConfigurationError)

    def test_durability_exception_hierarchy(self):
        for exc in (repro.JournalError,):
            assert issubclass(exc, repro.DurabilityError), exc
        assert issubclass(repro.DurabilityError, repro.CacheError)

    def test_serving_exception_hierarchy(self):
        """The serving layer's errors slot under the same base class."""
        for exc in (
            repro.ServingError,
            repro.ServerOverloadedError,
            repro.RequestTimeoutError,
            repro.ConnectionDrainingError,
            repro.ProtocolError,
        ):
            assert issubclass(exc, repro.CacheError), exc
            assert issubclass(exc, repro.ServingError), exc
        # Deadline misses must be catchable as a plain TimeoutError too.
        assert issubclass(repro.RequestTimeoutError, TimeoutError)

    def test_exceptions_carry_context(self):
        too_big = repro.ItemTooLargeError(b"k", 100, 10)
        assert too_big.item_size == 100 and too_big.limit == 10
