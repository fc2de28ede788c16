"""Token-bucket admission control with an overload state machine.

The serving layer must answer a question the cache core cannot: what to
do when work arrives faster than it can be served.  Queuing unboundedly
turns overload into latency collapse and OOM; this controller refuses
work instead, in a principled order that follows the paper's own N/Z
split:

* **HEALTHY** — every request takes a token from the bucket; rate and
  burst are the server's declared capacity.
* **SHEDDING** — the bucket ran dry.  Z-zone-destined GETs — identified
  by a Content-Filter pre-check (:meth:`ZExpander.routes_to_zzone`),
  i.e. exactly the requests that would pay a block decompression — are
  shed first with ``SERVER_ERROR overloaded``.  The cheap N-zone path
  keeps being admitted as tokens refill, so hot-key latency stays near
  unloaded.  The first admitted request that leaves the bucket holding
  :data:`RECOVERY_FRACTION` of its burst returns the machine to HEALTHY.

The controller bounds the *rate* of work, not its backlog: the server
dispatches each command synchronously, so nothing ever waits inside it,
and a connection's queue is bounded by the transport's write pause (the
slow-client isolation in :mod:`repro.server.server`).

Time is injected (``now()``), so unit tests and deterministic chaos runs
drive the machine with a :class:`TickClock` — one fixed step per
request — while production uses ``time.monotonic``.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.common.errors import ConfigurationError


class ServerState(enum.Enum):
    HEALTHY = "healthy"
    SHEDDING = "shedding"


#: Numeric codes for gauge exposition (dashboards can't plot strings).
_STATE_CODES = {
    ServerState.HEALTHY: 0,
    ServerState.SHEDDING: 1,
}

#: SHEDDING exits once the bucket holds this fraction of its burst.
RECOVERY_FRACTION = 0.5


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
    """A token bucket's state: ``rate`` tokens/second up to ``burst``,
    full at first.  :meth:`AdmissionController.admit` refills it for the
    time since its ``last`` reading (never for a clock that ran back)
    and takes a token from it, in one frame."""

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last: Optional[float] = None


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
    #: Reads refused on a replica because replication lag exceeded its
    #: advertised bound (external pressure, not local saturation).
    shed_lagging: int = 0
    entered_shedding: int = 0
    recovered_healthy: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


@dataclass
class AdmissionConfig:
    """Capacity declaration for one server process."""

    rate: float = 50_000.0
    burst: float = 2_000.0

    def validate(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.rate}")
        if self.burst < 1:
            raise ConfigurationError(f"burst must be >= 1, got {self.burst}")


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
            "0=healthy 1=shedding",
        )

    # ``inflight`` is unread: kept for benchmarks/ledger/traced.py:366 (ROADMAP 2(a)).
    def admit(self, zzone_bound: Callable[[], bool], inflight: int) -> bool:
        """True to execute the request, False to answer ``overloaded``.

        ``zzone_bound()`` says whether serving the request would take
        the Z-zone (expensive) path; it costs a Content-Filter pre-check,
        so it is called only while SHEDDING, where its answer decides.
        """
        stats = self.stats
        bucket = self.bucket
        now = self._now()
        last = bucket.last
        bucket.last = now
        if last is not None:
            elapsed = max(0.0, now - last)
            bucket.tokens = min(bucket.burst, bucket.tokens + elapsed * bucket.rate)

        if self.state is ServerState.HEALTHY:
            if bucket.tokens >= 1.0:
                bucket.tokens -= 1.0
                stats.admitted += 1
                return True
            self.state = ServerState.SHEDDING
            stats.entered_shedding += 1

        if zzone_bound():
            return self._shed("shed_zzone")
        if bucket.tokens < 1.0:
            return self._shed("shed_saturated")
        bucket.tokens -= 1.0
        stats.admitted += 1
        if bucket.tokens >= RECOVERY_FRACTION * bucket.burst:
            self.state = ServerState.HEALTHY
            stats.recovered_healthy += 1
        return True

    def note_lag_shed(self) -> bool:
        """Record a read shed for replication lag (replica role).

        Lag is pressure from *outside* the local machine, so it reuses
        the same visible states — the replica reports SHEDDING over the
        stats wire while lagging — without consuming tokens.  Recovery to
        HEALTHY happens through the normal admitted-request path once
        the lag clears.
        """
        if self.state is ServerState.HEALTHY:
            self.state = ServerState.SHEDDING
            self.stats.entered_shedding += 1
        return self._shed("shed_lagging")

    # -- internals -------------------------------------------------------------

    def _shed(self, counter: str) -> bool:
        self.stats.shed_total += 1
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        return False
