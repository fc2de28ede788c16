"""The overload state machine: transitions, shedding order, boundedness."""

import pytest

from repro.server.admission import (
    AdmissionConfig,
    AdmissionController,
    ServerState,
    TickClock,
    TokenBucket,
)


def z_bound() -> bool:
    """``admit``'s pre-check for a request the Z-zone would serve."""
    return True


def n_bound() -> bool:
    return False


def controller(rate=10.0, burst=5.0, soft=4, hard=8, low=2, dt=1.0):
    """A controller whose bucket gains ``rate * dt`` tokens per request."""
    config = AdmissionConfig(
        rate=rate,
        burst=burst,
        inflight_soft=soft,
        inflight_hard=hard,
        inflight_low=low,
    )
    return AdmissionController(config, now=TickClock(dt))


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate=1.0, burst=3.0)
        bucket.refill(0.0)
        assert [bucket.try_take() for _ in range(4)] == [True, True, True, False]

    def test_refills_at_rate_up_to_burst(self):
        bucket = TokenBucket(rate=2.0, burst=3.0)
        bucket.refill(0.0)
        for _ in range(3):
            assert bucket.try_take()
        bucket.refill(1.0)  # +2 tokens
        assert bucket.try_take() and bucket.try_take() and not bucket.try_take()
        bucket.refill(100.0)  # clamped to burst
        assert bucket.tokens == pytest.approx(3.0)

    def test_time_never_runs_backward(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        bucket.refill(5.0)
        bucket.try_take()
        bucket.refill(1.0)  # out-of-order reading must not mint tokens
        assert bucket.tokens == pytest.approx(1.0)


class TestTickClock:
    def test_fixed_steps(self):
        clock = TickClock(0.5)
        assert [clock() for _ in range(3)] == [0.0, 0.5, 1.0]

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            TickClock(0.0)


class TestStateMachine:
    def test_healthy_admits_with_tokens(self):
        ctl = controller(rate=100.0, burst=10.0)
        for _ in range(20):
            assert ctl.admit(zzone_bound=z_bound, inflight=0)
        assert ctl.state is ServerState.HEALTHY
        assert ctl.stats.shed_total == 0

    def test_token_exhaustion_enters_shedding(self):
        # 0.1 tokens/request: the burst of 3 goes fast, then starvation.
        ctl = controller(rate=0.1, burst=3.0)
        outcomes = [ctl.admit(zzone_bound=n_bound, inflight=0) for _ in range(6)]
        assert outcomes[:3] == [True, True, True]
        assert not all(outcomes[3:])
        assert ctl.state is ServerState.SHEDDING
        assert ctl.stats.entered_shedding >= 1

    def test_shedding_drops_zzone_first(self):
        ctl = controller(rate=0.5, burst=2.0)
        # Exhaust the burst.
        while ctl.state is ServerState.HEALTHY:
            ctl.admit(zzone_bound=n_bound, inflight=0)
        # Now alternating traffic: Z-bound always shed, N-bound admitted
        # whenever the half-token-per-request trickle affords one.
        z_admitted = sum(
            ctl.admit(zzone_bound=z_bound, inflight=ctl.config.inflight_soft)
            for _ in range(10)
        )
        n_admitted = sum(
            ctl.admit(zzone_bound=n_bound, inflight=ctl.config.inflight_soft)
            for _ in range(10)
        )
        assert z_admitted == 0
        assert n_admitted > 0
        assert ctl.stats.shed_zzone >= 10

    def test_soft_watermark_triggers_shedding_even_with_tokens(self):
        ctl = controller(rate=1000.0, burst=100.0, soft=4, hard=8)
        assert ctl.admit(zzone_bound=n_bound, inflight=4)
        assert not ctl.admit(zzone_bound=z_bound, inflight=5)
        assert ctl.state is ServerState.SHEDDING

    def test_hard_cap_is_brick_wall_for_everything(self):
        ctl = controller(rate=1000.0, burst=100.0, soft=4, hard=8)
        assert not ctl.admit(zzone_bound=n_bound, inflight=8)
        assert ctl.state is ServerState.BRICK_WALL
        # Even cheap N-zone work is refused while inflight stays high.
        assert not ctl.admit(zzone_bound=n_bound, inflight=7)
        assert ctl.stats.shed_brick_wall >= 1

    def test_brick_wall_steps_down_then_recovers(self):
        ctl = controller(rate=1000.0, burst=100.0, soft=4, hard=8, low=2)
        ctl.admit(zzone_bound=n_bound, inflight=8)
        assert ctl.state is ServerState.BRICK_WALL
        # Backlog drains below the low watermark: step down to SHEDDING
        # (the triggering request is still refused).
        assert not ctl.admit(zzone_bound=n_bound, inflight=1)
        assert ctl.state is ServerState.SHEDDING
        # With a fat refill rate the very next non-Z admit recovers.
        assert ctl.admit(zzone_bound=n_bound, inflight=1)
        assert ctl.state is ServerState.HEALTHY
        assert ctl.stats.recovered_healthy == 1

    def test_nothing_admitted_at_or_past_hard_cap(self):
        """The boundedness invariant, brute-forced over a hostile mix."""
        import random

        rng = random.Random(7)
        ctl = controller(rate=2.0, burst=4.0, soft=3, hard=6, low=1)
        for _ in range(500):
            inflight = rng.randrange(0, 10)
            bound = z_bound if rng.random() < 0.5 else n_bound
            admitted = ctl.admit(zzone_bound=bound, inflight=inflight)
            if inflight >= ctl.config.inflight_hard:
                assert not admitted
        assert ctl.stats.admitted + ctl.stats.shed_total == 500

    def test_stats_dict_shape(self):
        ctl = controller()
        ctl.admit(zzone_bound=n_bound, inflight=0)
        stats = ctl.stats.as_dict()
        assert stats["admitted"] == 1
        assert set(stats) >= {
            "shed_total",
            "shed_zzone",
            "shed_saturated",
            "shed_brick_wall",
            "max_inflight",
        }


class TestConfigValidation:
    def test_watermark_ordering_enforced(self):
        with pytest.raises(ValueError):
            AdmissionConfig(inflight_soft=10, inflight_hard=5).validate()
        with pytest.raises(ValueError):
            AdmissionConfig(
                inflight_low=50, inflight_soft=10, inflight_hard=60
            ).validate()

    def test_recovery_fraction_bounds(self):
        with pytest.raises(ValueError):
            AdmissionConfig(recovery_fraction=0.0).validate()
        with pytest.raises(ValueError):
            AdmissionConfig(recovery_fraction=1.5).validate()
