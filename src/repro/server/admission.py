"""Token-bucket admission control with an overload state machine.

The serving layer must answer a question the cache core cannot: what to
do when work arrives faster than it can be served.  Queuing unboundedly
turns overload into latency collapse and OOM; this controller refuses
work instead, in a principled order that follows the paper's own N/Z
split:

* **HEALTHY** — every request takes a token from the bucket; rate and
  burst are the server's declared capacity.
* **SHEDDING** — the bucket ran dry (or inflight crossed the soft
  watermark).  Z-zone-destined GETs — identified by a Content-Filter
  pre-check (:meth:`ZExpander.routes_to_zzone`), i.e. exactly the
  requests that would pay a block decompression — are shed first with
  ``SERVER_ERROR overloaded``.  The cheap N-zone path keeps being
  admitted as tokens refill, so hot-key latency stays near unloaded.
* **BRICK_WALL** — inflight reached the hard cap despite shedding; every
  request is refused until inflight drains below the low watermark.
  This is the invariant that makes queue growth *bounded by
  construction*: nothing is ever admitted past ``inflight_hard``.

Recovery runs the ladder in reverse: BRICK_WALL → SHEDDING once inflight
drains, SHEDDING → HEALTHY once the bucket has refilled past half its
burst with inflight at or below the soft watermark.

Time is injected (``now()``), so unit tests and deterministic chaos runs
drive the machine with a :class:`TickClock` — one fixed step per
request — while production uses ``time.monotonic``.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.common.errors import ConfigurationError


class ServerState(enum.Enum):
    HEALTHY = "healthy"
    SHEDDING = "shedding"
    BRICK_WALL = "brick_wall"


#: Numeric codes for gauge exposition (dashboards can't plot strings).
_STATE_CODES = {
    ServerState.HEALTHY: 0,
    ServerState.SHEDDING: 1,
    ServerState.BRICK_WALL: 2,
}


class TickClock:
    """A deterministic clock advancing a fixed ``dt`` per reading.

    Feeding this to :class:`AdmissionController` makes every admission
    decision a pure function of the request sequence — the backbone of
    byte-identical over-the-wire chaos reports.
    """

    def __init__(self, dt: float) -> None:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.dt = dt
        self._ticks = 0

    def __call__(self) -> float:
        now = self._ticks * self.dt
        self._ticks += 1
        return now


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second up to ``burst``."""

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last: Optional[float] = None

    def refill(self, now: float) -> None:
        if self._last is None:
            self._last = now
            return
        elapsed = max(0.0, now - self._last)
        self._last = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)

    def try_take(self) -> bool:
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class AdmissionStats:
    """Counters the ``stats`` command and the chaos verdicts read."""

    admitted: int = 0
    shed_total: int = 0
    #: Z-zone-destined GETs dropped in SHEDDING (the first shedding tier).
    shed_zzone: int = 0
    #: Non-Z work dropped in SHEDDING because even the protected path ran
    #: out of tokens.
    shed_saturated: int = 0
    #: Everything dropped while BRICK_WALL.
    shed_brick_wall: int = 0
    #: Reads refused on a replica because replication lag exceeded its
    #: advertised bound (external pressure, not local saturation).
    shed_lagging: int = 0
    entered_shedding: int = 0
    entered_brick_wall: int = 0
    recovered_healthy: int = 0
    #: High-water mark of concurrently executing requests ever *seen*;
    #: bounded by ``inflight_hard`` by construction.
    max_inflight: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


@dataclass
class AdmissionConfig:
    """Capacity declaration for one server process."""

    rate: float = 50_000.0
    burst: float = 2_000.0
    #: Inflight above this keeps the machine out of HEALTHY.
    inflight_soft: int = 32
    #: Nothing is admitted at or above this (BRICK_WALL trigger).
    inflight_hard: int = 64
    #: BRICK_WALL exits once inflight drains to this.
    inflight_low: int = 8
    #: SHEDDING exits once the bucket holds this fraction of its burst.
    recovery_fraction: float = 0.5

    def validate(self) -> None:
        if not 0 < self.inflight_low <= self.inflight_soft <= self.inflight_hard:
            raise ConfigurationError(
                "need 0 < inflight_low <= inflight_soft <= inflight_hard, got "
                f"{self.inflight_low}/{self.inflight_soft}/{self.inflight_hard}"
            )
        if not 0.0 < self.recovery_fraction <= 1.0:
            raise ConfigurationError(
                f"recovery_fraction must be in (0, 1], got {self.recovery_fraction}"
            )


class AdmissionController:
    """Decides admit-vs-shed for every request; never blocks, never queues."""

    def __init__(
        self,
        config: Optional[AdmissionConfig] = None,
        now: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = config if config is not None else AdmissionConfig()
        self.config.validate()
        self._now = now if now is not None else time.monotonic
        self.bucket = TokenBucket(self.config.rate, self.config.burst)
        self.state = ServerState.HEALTHY
        self.stats = AdmissionStats()

    def bind_metrics(self, registry, prefix: str = "admission") -> None:
        """Mount admission counters + live gauges into a metrics registry.

        The decision path keeps its plain dataclass increments; the
        registry reads them (and the bucket/state) only at snapshot time.
        """
        registry.mount(prefix, self.stats)
        registry.view(
            f"{prefix}_tokens",
            lambda: self.bucket.tokens,
            "token-bucket fill level",
            # Refilled against ``now()``: the wall clock, in production.
            timing=True,
        )
        registry.view(
            f"{prefix}_state_code",
            lambda: _STATE_CODES[self.state],
            "0=healthy 1=shedding 2=brick_wall",
        )

    def admit(self, zzone_bound: Callable[[], bool], inflight: int) -> bool:
        """True to execute the request, False to answer ``overloaded``.

        ``zzone_bound()`` says whether serving the request would take
        the Z-zone (expensive) path; it costs a Content-Filter pre-check,
        so it is called only while SHEDDING, where its answer decides.
        ``inflight`` is the count of requests executing right now,
        *excluding* this one.
        """
        stats = self.stats
        stats.max_inflight = max(stats.max_inflight, inflight)
        self.bucket.refill(self._now())

        if self.state == ServerState.HEALTHY:
            if inflight >= self.config.inflight_hard:
                self._enter(ServerState.BRICK_WALL)
            elif inflight > self.config.inflight_soft or not self.bucket.try_take():
                self._enter(ServerState.SHEDDING)
            else:
                stats.admitted += 1
                return True

        if self.state == ServerState.SHEDDING:
            if inflight >= self.config.inflight_hard:
                self._enter(ServerState.BRICK_WALL)
            elif zzone_bound():
                return self._shed("shed_zzone")
            elif not self.bucket.try_take():
                return self._shed("shed_saturated")
            else:
                stats.admitted += 1
                self._maybe_recover(inflight)
                return True

        # BRICK_WALL: admit nothing; step down once the backlog drains.
        if (
            inflight <= self.config.inflight_low
            and self.bucket.tokens >= 1.0
        ):
            self._enter(ServerState.SHEDDING)
        return self._shed("shed_brick_wall")

    def note_lag_shed(self) -> bool:
        """Record a read shed for replication lag (replica role).

        Lag is pressure from *outside* the local machine, so it reuses
        the same visible states — the replica reports SHEDDING over the
        stats wire while lagging — without consuming tokens or touching
        the inflight ladder.  Recovery to HEALTHY happens through the
        normal admitted-request path once the lag clears.  BRICK_WALL is
        never downgraded here — that exit is owned by the inflight drain.
        """
        if self.state is ServerState.HEALTHY:
            self._enter(ServerState.SHEDDING)
        return self._shed("shed_lagging")

    # -- internals -------------------------------------------------------------

    def _maybe_recover(self, inflight: int) -> None:
        if (
            self.bucket.tokens
            >= self.config.recovery_fraction * self.bucket.burst
            and inflight <= self.config.inflight_soft
        ):
            self.state = ServerState.HEALTHY
            self.stats.recovered_healthy += 1

    def _enter(self, state: ServerState) -> None:
        if state is self.state:
            return
        self.state = state
        if state == ServerState.SHEDDING:
            self.stats.entered_shedding += 1
        elif state == ServerState.BRICK_WALL:
            self.stats.entered_brick_wall += 1

    def _shed(self, counter: str) -> bool:
        self.stats.shed_total += 1
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        return False
