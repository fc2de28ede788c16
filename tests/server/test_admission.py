"""The overload state machine: transitions, shedding order, recovery."""

import pytest

from repro.common.errors import ConfigurationError
from repro.server.admission import (
    AdmissionConfig,
    AdmissionController,
    ServerState,
    TickClock,
)


def z_bound() -> bool:
    """``admit``'s pre-check for a request the Z-zone would serve."""
    return True


def n_bound() -> bool:
    return False


def controller(rate=10.0, burst=5.0, dt=1.0):
    """A controller whose bucket gains ``rate * dt`` tokens per request."""
    config = AdmissionConfig(rate=rate, burst=burst)
    return AdmissionController(config, now=TickClock(dt))


def readings(*times):
    """A ``now`` that returns ``times`` in turn."""
    return iter(times).__next__


class TestTokenBucket:
    """The bucket, through the one call that refills and takes."""

    def test_starts_full_and_drains(self):
        ctl = AdmissionController(
            AdmissionConfig(rate=1.0, burst=3.0), now=lambda: 0.0
        )
        outcomes = [ctl.admit(zzone_bound=n_bound, inflight=0) for _ in range(4)]
        assert outcomes == [True, True, True, False]

    def test_refills_at_rate_up_to_burst(self):
        ctl = AdmissionController(
            AdmissionConfig(rate=2.0, burst=3.0),
            now=readings(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 100.0),
        )
        for _ in range(3):
            assert ctl.admit(zzone_bound=n_bound, inflight=0)
        # +2 tokens at 1.0
        assert ctl.admit(zzone_bound=n_bound, inflight=0)
        assert ctl.admit(zzone_bound=n_bound, inflight=0)
        assert not ctl.admit(zzone_bound=n_bound, inflight=0)
        # Clamped to burst; a shed Z-bound request takes no token.
        assert not ctl.admit(zzone_bound=z_bound, inflight=0)
        assert ctl.bucket.tokens == pytest.approx(3.0)

    def test_time_never_runs_backward(self):
        ctl = AdmissionController(
            AdmissionConfig(rate=1.0, burst=2.0), now=readings(5.0, 1.0)
        )
        assert ctl.admit(zzone_bound=n_bound, inflight=0)
        # An out-of-order reading must not mint tokens: 1 left, 1 taken.
        assert ctl.admit(zzone_bound=n_bound, inflight=0)
        assert ctl.bucket.tokens == pytest.approx(0.0)


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
        z_admitted = sum(ctl.admit(zzone_bound=z_bound, inflight=0) for _ in range(10))
        n_admitted = sum(ctl.admit(zzone_bound=n_bound, inflight=0) for _ in range(10))
        assert z_admitted == 0
        assert n_admitted > 0
        assert ctl.stats.shed_zzone >= 10

    def test_shedding_recovers_once_half_the_burst_is_left(self):
        """SHEDDING returns to HEALTHY on the first admitted request that
        leaves the bucket holding half its burst, and not before."""
        # Half a token per request, burst 4: recovery needs 2 tokens left
        # after the admitted request has taken its own.
        ctl = controller(rate=0.5, burst=4.0)
        while ctl.state is ServerState.HEALTHY:
            ctl.admit(zzone_bound=n_bound, inflight=0)
        # A shed Z-bound request takes no token: each one refills half.
        while ctl.bucket.tokens < 2.0:
            assert not ctl.admit(zzone_bound=z_bound, inflight=0)
        assert ctl.admit(zzone_bound=n_bound, inflight=0)  # leaves 1.5
        assert ctl.state is ServerState.SHEDDING
        assert ctl.stats.recovered_healthy == 0
        for _ in range(2):
            assert not ctl.admit(zzone_bound=z_bound, inflight=0)
        assert ctl.admit(zzone_bound=n_bound, inflight=0)  # leaves 2.0
        assert ctl.state is ServerState.HEALTHY
        assert ctl.stats.recovered_healthy == 1

    def test_stats_dict_shape(self):
        ctl = controller()
        ctl.admit(zzone_bound=n_bound, inflight=0)
        stats = ctl.stats.as_dict()
        assert stats["admitted"] == 1
        assert set(stats) == {
            "admitted",
            "shed_total",
            "shed_zzone",
            "shed_saturated",
            "shed_lagging",
            "entered_shedding",
            "recovered_healthy",
        }


class TestConfigValidation:
    def test_rate_and_burst_refused(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(rate=0.0).validate()
        with pytest.raises(ConfigurationError):
            AdmissionConfig(burst=0.5).validate()
