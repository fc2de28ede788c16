"""Seeded, self-verifying load generator for the serving layer.

Each connection replays a traffic stream derived *only* from the seed
and its connection index: op choice, key choice (quadratically skewed
toward hot keys), value sizes, and wire-fault firings all come from
per-connection RNG streams.  Connections own disjoint key spaces, so
every GET's expected bytes are computable client-side regardless of how
the event loop interleaves connections — which is what makes the
correctness verdict (``wrong bytes``, ``stale reads``) deterministic
even under concurrency.

Wire faults (the ``conn.*`` sites of a :class:`FaultPlan`) are applied
here, on the client side of the socket, because that is where an
operator's failures actually originate: ``conn.reset`` aborts the
connection after sending half a request; ``conn.stall`` stops sending
mid-request for the spec's ``magnitude`` seconds, long enough to trip
the server's read timeout when configured that way.  Both leave the
generator certain the aborted command never executed (the server
discards partial frames), so verification stays exact.
"""

from __future__ import annotations

import asyncio
import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import (
    ConnectionDrainingError,
    ServerOverloadedError,
    ServingError,
)
from repro.common.rng import derive_seed
from repro.faults.plan import WIRE_SITES, FaultPlan, FaultSpec
from repro.server.client import MemcacheClient, _Connection, _raise_for_error_line
from repro.server.protocol import CRLF

#: Sentinel for "this key's server-side state is uncertain" (a timeout
#: after a fully sent write, for example); such keys are exempt from
#: byte verification until the next certain write.
UNKNOWN = -1
#: Sentinel for "deleted": a GET hit on this key would be a stale read.
TOMBSTONE = -2


def expected_value(seed: int, conn: int, key_id: int, version: int) -> bytes:
    """The exact bytes version ``version`` of a key must contain.

    Pure function of its arguments: sized 32..~280 bytes by a hash, with
    a header that binds (conn, key, version) so any cross-key or
    cross-version mixup is detected byte-for-byte.
    """
    header = b"lgv:%d:%d:%d:%d:" % (seed, conn, key_id, version)
    size = 32 + (zlib.crc32(header) % 250)
    filler = (header * (size // len(header) + 1))[: max(0, size - len(header))]
    return header + filler


def key_name(conn: int, key_id: int) -> bytes:
    return b"lg:%02d:%05d" % (conn, key_id)


@dataclass
class LoadConfig:
    host: str = "127.0.0.1"
    port: int = 11311
    connections: int = 4
    requests_per_conn: int = 1_000
    keys_per_conn: int = 100
    set_fraction: float = 0.30
    delete_fraction: float = 0.02
    seed: int = 0
    plan: Optional[FaultPlan] = None
    deadline: float = 2.0
    #: Pooled multi-get verification sweep after the load phase.
    verify: bool = True
    #: Treat a hit on a key this run never wrote as fabricated bytes.
    #: Turn off when driving a warm server (e.g. after a restart) whose
    #: prior contents legitimately overlap the generator's key space.
    verify_unwritten: bool = True

    def validate(self) -> None:
        if self.connections < 1 or self.requests_per_conn < 1:
            raise ValueError("connections and requests_per_conn must be >= 1")
        if self.keys_per_conn < 1:
            raise ValueError("keys_per_conn must be >= 1")
        if not 0.0 <= self.set_fraction + self.delete_fraction <= 1.0:
            raise ValueError("set_fraction + delete_fraction must be in [0, 1]")


@dataclass
class LoadReport:
    """Outcome of one loadgen run.

    :meth:`render` prints only fields that are pure functions of (config,
    seed) — safe to byte-diff across runs; :meth:`render_metrics` prints
    the timing-dependent rest.
    """

    config: LoadConfig
    issued_gets: int = 0
    issued_sets: int = 0
    issued_deletes: int = 0
    #: Wire-fault firings per site; per-connection RNG streams make these
    #: independent of event-loop interleaving.
    injected: Dict[str, int] = field(default_factory=dict)
    wrong_bytes: int = 0
    stale_reads: int = 0
    crashes: int = 0
    # -- timing-dependent -----------------------------------------------------
    hits: int = 0
    misses: int = 0
    misses_after_set: int = 0
    shed_seen: int = 0
    draining_seen: int = 0
    reconnects: int = 0
    unknown_outcomes: int = 0
    verify_expected: int = 0
    verify_resident: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def resident_ratio(self) -> float:
        if self.verify_expected == 0:
            return 1.0
        return self.verify_resident / self.verify_expected

    def finalise(self) -> None:
        """Turn counters into the verdict."""
        if self.wrong_bytes:
            self.violations.append(f"{self.wrong_bytes} GETs returned wrong bytes")
        if self.stale_reads:
            self.violations.append(f"{self.stale_reads} reads after delete")
        if self.crashes:
            self.violations.append(f"{self.crashes} connection crashes")

    def render(self) -> str:
        plan = self.config.plan
        lines = [
            f"loadgen: connections={self.config.connections} "
            f"requests_per_conn={self.config.requests_per_conn} "
            f"keys_per_conn={self.config.keys_per_conn} seed={self.config.seed}",
            "plan: "
            + (
                f"seed={plan.seed} sites={','.join(plan.sites) or '-'}"
                if plan is not None
                else "none"
            ),
            f"issued: gets={self.issued_gets} sets={self.issued_sets} "
            f"deletes={self.issued_deletes}",
        ]
        wire = {site: self.injected.get(site, 0) for site in WIRE_SITES}
        lines.append(
            "injected: "
            + " ".join(f"{site}={count}" for site, count in sorted(wire.items()))
        )
        lines.append(f"wrong_bytes: {self.wrong_bytes}")
        lines.append(f"stale_reads: {self.stale_reads}")
        lines.append(f"crashes: {self.crashes}")
        if self.violations:
            lines.append(f"FAIL ({len(self.violations)} violations)")
            for violation in self.violations:
                lines.append(f"  - {violation}")
        else:
            lines.append("OK: traffic verified, no wrong bytes")
        return "\n".join(lines)

    def render_metrics(self) -> str:
        return "\n".join(
            [
                f"hits={self.hits} misses={self.misses} "
                f"misses_after_set={self.misses_after_set}",
                f"shed_seen={self.shed_seen} draining_seen={self.draining_seen} "
                f"reconnects={self.reconnects} unknown={self.unknown_outcomes}",
                f"verify: resident={self.verify_resident}/{self.verify_expected}"
                f" ({self.resident_ratio:.3f})",
            ]
        )


class _WireFaultArm:
    """Per-connection deterministic firing of the ``conn.*`` sites."""

    def __init__(self, plan: Optional[FaultPlan], conn_id: int) -> None:
        self._specs: Dict[str, List[FaultSpec]] = {site: [] for site in WIRE_SITES}
        self._rngs: Dict[str, random.Random] = {}
        self.fired: Dict[str, int] = {site: 0 for site in WIRE_SITES}
        if plan is None:
            return
        for site in WIRE_SITES:
            self._specs[site] = plan.for_site(site)
            self._rngs[site] = random.Random(
                derive_seed(plan.seed, f"wire-{site}-conn{conn_id}")
            )

    def roll(self, site: str, position: int) -> Optional[FaultSpec]:
        for spec in self._specs[site]:
            if not spec.active_at(position):
                continue
            if spec.limit is not None and self.fired[site] >= spec.limit:
                continue
            if self._rngs[site].random() < spec.rate:
                self.fired[site] += 1
                return spec
        return None


class _ConnectionDriver:
    """One loadgen connection: deterministic ops, exact verification."""

    def __init__(self, config: LoadConfig, conn_id: int, report: LoadReport) -> None:
        self.config = config
        self.conn_id = conn_id
        self.report = report
        self.ops_rng = random.Random(
            derive_seed(config.seed, f"loadgen-ops-conn{conn_id}")
        )
        self.arm = _WireFaultArm(config.plan, conn_id)
        #: key_id -> version written, or UNKNOWN / TOMBSTONE.
        self.state: Dict[int, int] = {}
        self.versions: Dict[int, int] = {}
        self.conn: Optional[_Connection] = None

    # -- plumbing --------------------------------------------------------------

    async def _ensure_conn(self) -> _Connection:
        if self.conn is None:
            self.conn = await _Connection.open(self.config.host, self.config.port)
        return self.conn

    def _drop_conn(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
            self.report.reconnects += 1

    async def _send_with_faults(
        self, request: bytes, position: int
    ) -> Optional[str]:
        """Send ``request``, applying wire faults.

        Returns None when the request went out whole, or the fault site
        when the command was certainly never received in full (reset, or
        stall that tripped the server's read timeout).
        """
        conn = await self._ensure_conn()
        reset = self.arm.roll("conn.reset", position)
        if reset is not None:
            conn.writer.write(request[: max(1, len(request) // 2)])
            try:
                await conn.writer.drain()
            except (ConnectionError, OSError):
                pass
            # Abort hard: no FIN-after-flush niceties, like a crashed peer.
            transport = conn.writer.transport
            if transport is not None:
                transport.abort()
            self.conn = None
            self.report.reconnects += 1
            return "conn.reset"
        stall = self.arm.roll("conn.stall", position)
        if stall is not None:
            half = max(1, len(request) // 2)
            conn.writer.write(request[:half])
            await conn.writer.drain()
            await asyncio.sleep(stall.magnitude)
            try:
                conn.writer.write(request[half:])
                await conn.writer.drain()
            except (ConnectionError, OSError):
                # The server timed out our stalled read and hung up; the
                # partial command was discarded on its side.
                self._drop_conn()
                return "conn.stall"
            return None
        conn.writer.write(request)
        await conn.writer.drain()
        return None

    # -- the traffic loop ------------------------------------------------------

    async def run(self) -> None:
        config = self.config
        for position in range(config.requests_per_conn):
            draw = self.ops_rng.random()
            # Quadratic skew: low key ids are hot, high ids are the
            # long tail the Z-zone exists for.
            key_id = int(config.keys_per_conn * self.ops_rng.random() ** 2)
            key_id = min(key_id, config.keys_per_conn - 1)
            if draw < config.set_fraction:
                op = "set"
                self.report.issued_sets += 1
            elif draw < config.set_fraction + config.delete_fraction:
                op = "delete"
                self.report.issued_deletes += 1
            else:
                op = "get"
                self.report.issued_gets += 1
            try:
                await asyncio.wait_for(
                    self._issue(op, key_id, position), config.deadline
                )
            except (asyncio.TimeoutError, TimeoutError):
                # Outcome unknown: the server may or may not have applied
                # the command before we stopped listening.
                self.report.unknown_outcomes += 1
                if op in ("set", "delete"):
                    self.state[key_id] = UNKNOWN
                self._drop_conn()
            except (ServerOverloadedError,):
                self.report.shed_seen += 1
            except ConnectionDrainingError:
                self.report.draining_seen += 1
            except (ConnectionError, EOFError, OSError, asyncio.IncompleteReadError):
                # The mutation may have been applied before the cut.
                self.report.unknown_outcomes += 1
                if op in ("set", "delete"):
                    self.state[key_id] = UNKNOWN
                self._drop_conn()
            except ServingError:
                self.report.unknown_outcomes += 1
                if op in ("set", "delete"):
                    self.state[key_id] = UNKNOWN
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    async def _issue(self, op: str, key_id: int, position: int) -> None:
        key = key_name(self.conn_id, key_id)
        if op == "set":
            version = self.versions.get(key_id, 0) + 1
            value = expected_value(self.config.seed, self.conn_id, key_id, version)
            request = b"set %s 0 0 %d" % (key, len(value)) + CRLF + value + CRLF
            aborted = await self._send_with_faults(request, position)
            if aborted is not None:
                return  # never reached the cache; state is unchanged
            line = (await self.conn.read_line()).rstrip()
            if line == b"STORED":
                self.versions[key_id] = version
                self.state[key_id] = version
                return
            _raise_for_error_line(line + CRLF)
            raise ServingError(f"unexpected set reply {line!r}")
        if op == "delete":
            request = b"delete %s" % key + CRLF
            aborted = await self._send_with_faults(request, position)
            if aborted is not None:
                return
            line = (await self.conn.read_line()).rstrip()
            if line in (b"DELETED", b"NOT_FOUND"):
                self.state[key_id] = TOMBSTONE
                return
            _raise_for_error_line(line + CRLF)
            raise ServingError(f"unexpected delete reply {line!r}")
        # GET + exact verification.
        request = b"get %s" % key + CRLF
        aborted = await self._send_with_faults(request, position)
        if aborted is not None:
            return
        value = None
        async for got, _flags, payload, _cas in self.conn.read_values():
            if got == key:
                value = payload
        expected = self.state.get(key_id)
        if value is None:
            self.report.misses += 1
            if expected is not None and expected >= 0:
                self.report.misses_after_set += 1
            return
        self.report.hits += 1
        if expected is None:
            # Never wrote it on this connection; key spaces are disjoint,
            # so on a cold server a value here is fabricated bytes (a warm
            # server may hold it legitimately from an earlier run).
            if self.config.verify_unwritten:
                self.report.wrong_bytes += 1
        elif expected == TOMBSTONE:
            self.report.stale_reads += 1
        elif expected == UNKNOWN:
            pass  # cannot judge; next certain write re-arms verification
        elif value != expected_value(
            self.config.seed, self.conn_id, key_id, expected
        ):
            self.report.wrong_bytes += 1


async def run_loadgen(config: LoadConfig) -> LoadReport:
    """Drive the server at ``config`` and verify every byte it returns."""
    config.validate()
    report = LoadReport(config=config)
    drivers = [
        _ConnectionDriver(config, conn_id, report)
        for conn_id in range(config.connections)
    ]
    results = await asyncio.gather(
        *(driver.run() for driver in drivers), return_exceptions=True
    )
    for result in results:
        if isinstance(result, BaseException):
            report.crashes += 1
            report.violations.append(
                f"connection driver crashed: {type(result).__name__}: {result}"
            )
    for site in WIRE_SITES:
        report.injected[site] = sum(driver.arm.fired[site] for driver in drivers)
    if config.verify:
        await _verify_sweep(config, drivers, report)
    report.finalise()
    return report


async def _verify_sweep(
    config: LoadConfig, drivers: List[_ConnectionDriver], report: LoadReport
) -> None:
    """Pooled multi-get over every certainly-written key."""
    client = MemcacheClient(
        config.host, config.port, pool_size=2, deadline=config.deadline
    )
    try:
        for driver in drivers:
            certain = sorted(
                key_id
                for key_id, version in driver.state.items()
                if version >= 0
            )
            report.verify_expected += len(certain)
            for start in range(0, len(certain), 16):
                batch = certain[start : start + 16]
                keys = [key_name(driver.conn_id, key_id) for key_id in batch]
                try:
                    found = await client.get_many(keys)
                except ServingError:
                    continue
                for key_id, key in zip(batch, keys):
                    value = found.get(key)
                    if value is None:
                        continue
                    report.verify_resident += 1
                    expected = expected_value(
                        config.seed,
                        driver.conn_id,
                        key_id,
                        driver.state[key_id],
                    )
                    if value != expected:
                        report.wrong_bytes += 1
    finally:
        await client.close()
