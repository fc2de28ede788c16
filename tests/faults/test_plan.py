"""FaultPlan: validation, loading, and canned plans."""

import json
from dataclasses import asdict

import pytest

from repro.common.errors import FaultPlanError
from repro.faults import SITES, FaultPlan, FaultSpec


class TestFaultSpec:
    def test_valid_spec(self):
        FaultSpec(site="block.bitflip", rate=0.1).validate()

    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(site="zzone.meteor", rate=0.1).validate()

    @pytest.mark.parametrize("rate", [-0.01, 1.01])
    def test_rate_bounds(self, rate):
        with pytest.raises(FaultPlanError):
            FaultSpec(site="block.bitflip", rate=rate).validate()

    def test_window_must_be_ordered(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(site="clock.skew", rate=0.1, start=10, stop=5).validate()

    def test_squeeze_magnitude_bounds(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(site="capacity.squeeze", rate=0.1, magnitude=1.5).validate()

    def test_bad_mode_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(site="codec.compress", rate=0.1, mode="explode").validate()

    def test_window_activity(self):
        spec = FaultSpec(site="clock.skew", rate=1.0, start=10, stop=20)
        assert not spec.active_at(9)
        assert spec.active_at(10)
        assert spec.active_at(19)
        assert not spec.active_at(20)

    def test_open_window(self):
        assert FaultSpec(site="clock.skew", rate=1.0).active_at(10**9)


class TestFaultPlan:
    def test_plan_validates_specs_on_construction(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(seed=1, specs=(FaultSpec(site="nope", rate=0.5),))

    def test_json_round_trip(self):
        # Every field a spec declares is a key the loader accepts.
        plan = FaultPlan.default(seed=42)
        clone = FaultPlan.from_json(json.dumps(asdict(plan)))
        assert clone == plan

    def test_file_round_trip(self, tmp_path):
        plan = FaultPlan.default(seed=9)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(asdict(plan)))
        assert FaultPlan.load(str(path)) == plan

    def test_bad_json_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("{not json")

    def test_unknown_keys_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"seed": 1, "specs": [], "turbo": True})
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict(
                {"seed": 1, "specs": [{"site": "clock.skew", "rate": 1, "x": 2}]}
            )

    def test_default_plan_covers_every_cache_site(self):
        from repro.faults import WIRE_SITES

        cache_sites = tuple(s for s in SITES if s not in WIRE_SITES)
        assert FaultPlan.default(0).sites == cache_sites

    def test_server_plan_adds_the_wire_sites(self):
        from repro.faults import WIRE_SITES
        from repro.server.chaos import default_server_plan

        assert set(default_server_plan(0).sites) >= set(WIRE_SITES)

    def test_for_site_filters(self):
        plan = FaultPlan.default(0)
        specs = plan.for_site("block.bitflip")
        assert specs and all(s.site == "block.bitflip" for s in specs)

    def test_plans_are_hashable(self):
        assert hash(FaultPlan.default(1)) == hash(FaultPlan.default(1))
