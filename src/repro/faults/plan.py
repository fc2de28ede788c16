"""Declarative, seeded fault plans.

A :class:`FaultPlan` describes *what* to break, *where*, and *how often*:
a top-level seed plus a list of site-addressable :class:`FaultSpec`
entries.  The plan is pure data — loaded from JSON (``cli chaos --plan``)
so chaos runs can be committed, diffed, and replayed byte-identically —
and all randomness is derived from the plan seed through the same
:func:`~repro.common.rng.derive_seed` plumbing every other stochastic
component uses.

Injection sites
===============

``block.bitflip``
    Flip one random bit in the compressed payload of the Z-zone block (or
    large item) a keyed operation is about to touch.  Exercises the
    checksum/quarantine path.
``codec.compress`` / ``codec.decompress``
    Make the wrapped codec raise :class:`~repro.common.errors.CodecError`
    (``mode="error"``) or silently return wrong-shaped bytes
    (``mode="garbage"``).  Exercises the codec fallback chain and the
    container length check.
``capacity.squeeze``
    Shrink the Z-zone budget by ``magnitude`` (a fraction) for
    ``duration`` requests, then restore it.  Exercises emergency sweeps.
``clock.skew``
    Jump the virtual clock forward by ``magnitude`` seconds.  Exercises
    marker and adaptation timing under time anomalies, and on a served
    cache TTL expiry too (the server's store reads deadlines on the
    cache's clock).
``conn.reset``
    Serving-layer site: abruptly close the TCP connection mid-request
    (possibly mid-``set`` data block).  Exercises the server's partial
    frame handling and accounting under abrupt disconnects.
``conn.stall``
    Serving-layer site: stop sending mid-request for ``magnitude``
    seconds.  Exercises the server's per-connection read timeout and
    slow-client isolation.

The ``conn.*`` sites are applied by the load generator's wire-fault
arm (:mod:`repro.server.loadgen`); the in-process :class:`FaultInjector`
ignores them — there is no connection to break in a library replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import FaultPlanError

#: Every addressable injection site.
SITES = (
    "block.bitflip",
    "codec.compress",
    "codec.decompress",
    "capacity.squeeze",
    "clock.skew",
    "conn.reset",
    "conn.stall",
)

#: Sites applied on the wire by the serving layer, not the cache core.
WIRE_SITES = ("conn.reset", "conn.stall")
_MODES = ("error", "garbage")


@dataclass(frozen=True)
class FaultSpec:
    """One fault source: a site, a firing rate, and an activity window.

    * ``rate`` — per-opportunity firing probability in [0, 1].
    * ``start``/``stop`` — request-position window (``stop=None`` = open).
    * ``limit`` — cap on total firings (``None`` = unlimited).
    * ``mode`` — codec sites only: ``"error"`` raises, ``"garbage"``
      returns wrong bytes.
    * ``magnitude`` — squeeze fraction or skew seconds.
    * ``duration`` — squeeze only: requests until the budget is restored.
    """

    site: str
    rate: float
    start: int = 0
    stop: Optional[int] = None
    limit: Optional[int] = None
    mode: str = "error"
    magnitude: float = 0.5
    duration: int = 500

    def validate(self) -> None:
        if self.site not in SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r}; choose from {SITES}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError(f"rate must be in [0, 1], got {self.rate}")
        if self.start < 0:
            raise FaultPlanError(f"start must be >= 0, got {self.start}")
        if self.stop is not None and self.stop < self.start:
            raise FaultPlanError(
                f"stop ({self.stop}) must be >= start ({self.start})"
            )
        if self.limit is not None and self.limit < 0:
            raise FaultPlanError(f"limit must be >= 0, got {self.limit}")
        if self.mode not in _MODES:
            raise FaultPlanError(
                f"unknown mode {self.mode!r}; choose from {_MODES}"
            )
        if self.site == "capacity.squeeze":
            if not 0.0 < self.magnitude < 1.0:
                raise FaultPlanError(
                    f"squeeze magnitude must be in (0, 1), got {self.magnitude}"
                )
            if self.duration <= 0:
                raise FaultPlanError(
                    f"squeeze duration must be positive, got {self.duration}"
                )
        elif self.site == "clock.skew" and self.magnitude < 0:
            raise FaultPlanError(
                f"skew magnitude must be >= 0, got {self.magnitude}"
            )
        elif self.site == "conn.stall" and self.magnitude <= 0:
            raise FaultPlanError(
                f"stall magnitude (seconds) must be positive, got {self.magnitude}"
            )

    def active_at(self, position: int) -> bool:
        """Whether this spec's window covers request ``position``."""
        if position < self.start:
            return False
        return self.stop is None or position < self.stop

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSpec":
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault spec must be an object, got {data!r}")
        unknown = set(data) - {
            "site", "rate", "start", "stop", "limit",
            "mode", "magnitude", "duration",
        }
        if unknown:
            raise FaultPlanError(f"unknown fault-spec keys {sorted(unknown)}")
        if "site" not in data or "rate" not in data:
            raise FaultPlanError("fault spec requires 'site' and 'rate'")
        spec = cls(
            site=data["site"],
            rate=float(data["rate"]),
            start=int(data.get("start", 0)),
            stop=None if data.get("stop") is None else int(data["stop"]),
            limit=None if data.get("limit") is None else int(data["limit"]),
            mode=data.get("mode", "error"),
            magnitude=float(data.get("magnitude", 0.5)),
            duration=int(data.get("duration", 500)),
        )
        spec.validate()
        return spec


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered tuple of fault specs.

    Frozen so a plan can be shared across shards and runs without anyone
    mutating it; equality and hashing come for free, which the trace
    memoisation in chaos tests relies on.
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            spec.validate()

    def for_site(self, site: str) -> List[FaultSpec]:
        return [spec for spec in self.specs if spec.site == site]

    @property
    def sites(self) -> Tuple[str, ...]:
        """The distinct sites this plan injects at, in SITES order."""
        present = {spec.site for spec in self.specs}
        return tuple(site for site in SITES if site in present)

    # -- loading --------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault plan must be an object, got {data!r}")
        unknown = set(data) - {"seed", "specs"}
        if unknown:
            raise FaultPlanError(f"unknown fault-plan keys {sorted(unknown)}")
        specs = data.get("specs", [])
        if not isinstance(specs, (list, tuple)):
            raise FaultPlanError("'specs' must be a list")
        return cls(
            seed=int(data.get("seed", 0)),
            specs=tuple(FaultSpec.from_dict(item) for item in specs),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # -- canned plans ---------------------------------------------------------

    @classmethod
    def default(cls, seed: int = 0) -> "FaultPlan":
        """The standard chaos mix: every cache-level site, modest rates.

        Wire sites (``conn.*``) only make sense over a real socket; the
        serving-path equivalent including them is
        :func:`repro.server.chaos.default_server_plan`.
        """
        return cls(
            seed=seed,
            specs=(
                FaultSpec(site="block.bitflip", rate=0.002),
                FaultSpec(site="codec.decompress", rate=0.001, mode="error"),
                FaultSpec(site="codec.compress", rate=0.0005, mode="error"),
                FaultSpec(
                    site="capacity.squeeze",
                    rate=0.0002,
                    magnitude=0.4,
                    duration=400,
                ),
                FaultSpec(site="clock.skew", rate=0.0005, magnitude=30.0),
            ),
        )
