"""The harness kit: one oracle and one driver under every campaign.

``cli chaos --crash | --replication | --cluster | --server`` and ``cli
loadgen`` are five campaigns of one shape: a server (real ``cli serve``
children, or whatever listens at an address), one oracle that knows what
every key may legally hold, and rounds of *drive seeded traffic, fire
one event at a seeded op count, sweep the keyspace against the oracle*,
ending in a verdict.  This module is that shape, stated once; each
campaign file keeps only what is particular to its proof (what the
event is, which servers exist, what else it probes).

* The value scheme — :func:`key_name`, :func:`expected_value`, the
  ``UNKNOWN`` / ``TOMBSTONE`` sentinels: every value is a pure function
  of ``(seed, lane, key, version)``, so returned bytes name the version
  they are, or prove themselves fabricated.
* :class:`ServeChild` — the subprocess, one settings mapping rendered by
  :func:`serve_argv` at every start: spawn, learn its ports from stdout,
  SIGKILL or drain.  A child that fails to bind is killed and reaped
  before the error propagates; nothing is leaked on any path.
* :class:`Oracle` — per-key ground truth (acked version / ``UNKNOWN`` /
  ``TOMBSTONE``) and the one verdict table every read is judged by.
* :func:`drive` — one driver per connection drawing the seeded op
  stream (:func:`op_stream`) into whatever client the campaign hands it,
  plus :func:`fire_after`, the poll-the-counter trigger for the event.
* :func:`sweep` — every oracle key, in batches, judged and tallied.
* :class:`TrafficConfig` / :class:`CampaignConfig` / :class:`RoundOutcome`
  / :class:`CampaignReport` — a round of traffic and a campaign's
  process settings, each declared once; the shared clauses of the
  verdict; and the split between ``render()`` (stdout: seed-derived
  fields and the zero-when-correct counters, byte-diffed by CI) and
  ``render_metrics()`` (stderr: everything that follows the wall clock).

**When a key may become ``UNKNOWN``.**  ``UNKNOWN`` exempts a key from
the loss check until its next acknowledged write, so it must be spent
only where the outcome really is unknowable: a mutation that failed
*after at least part of it may have reached a live server*.  A request
addressed to a child the harness has already reaped (``proc.wait()``
returned before the op began — nothing can apply it), whose connect was
refused (no byte left this process), or that a client-side wire fault
cut short of its last byte (:class:`RequestCut` — servers discard
partial frames), leaves the oracle's state standing.  Marking those
``UNKNOWN`` too is what let every op drawn after a kill blind the sweep
that follows it.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import re
import signal
import sys
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Awaitable,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ConfigurationError, ServingError
from repro.common.rng import derive_seed
from repro.server.client import MemcacheClient, RetryPolicy

HOST = "127.0.0.1"

#: Keys per multiget in :func:`sweep`.
SWEEP_BATCH = 16

#: What a failed request can raise out of a client (``TimeoutError`` and
#: ``ConnectionError`` are ``OSError`` subclasses).
OP_FAILURES = (ServingError, OSError, EOFError, asyncio.IncompleteReadError)


class RequestCut(ConnectionError):
    """A client-side wire fault ended the request before its last byte
    was written; the server discards the partial frame."""


#: Failures that prove no server applied the op — on a client that never
#: re-sends (see :func:`drive`).
NEVER_SENT = (ConnectionRefusedError, RequestCut)

# -- the value scheme -----------------------------------------------------------

#: Oracle state "the server may or may not have applied the last
#: mutation" (a timeout after a fully sent write, for example).
UNKNOWN = -1
#: Oracle state "deleted": a hit on this key is a resurrection.
TOMBSTONE = -2


def expected_value(seed: int, lane: int, key_id: int, version: int) -> bytes:
    """The exact bytes version ``version`` of a key must contain.

    Pure function of its arguments: sized 32..~280 bytes by a hash, with
    a header that binds (lane, key, version) so any cross-key or
    cross-version mixup is detected byte-for-byte.
    """
    header = b"lgv:%d:%d:%d:%d:" % (seed, lane, key_id, version)
    size = 32 + (zlib.crc32(header) % 250)
    filler = (header * (size // len(header) + 1))[: max(0, size - len(header))]
    return header + filler


def key_name(lane: int, key_id: int) -> bytes:
    """Lanes (one per connection) own disjoint key spaces."""
    return b"lg:%02d:%05d" % (lane, key_id)


_SERVING_RE = re.compile(rb"serving memcached protocol on ([\d.]+):(\d+)")
_REPL_RE = re.compile(
    rb"replication: streaming journal to replicas on ([\d.]+):(\d+)"
)
_SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- the serve child ------------------------------------------------------------


#: Timeouts of every child a campaign or supervisor spawns: its
#: connections are never idle for long.
CHILD_TIMEOUTS = {"read_timeout": 10.0}

#: Seconds a spawned child has to print its serving line.
START_TIMEOUT = 30.0


def serve_argv(**settings: object) -> List[str]:
    """``cli serve`` arguments for a settings mapping, by one rule:
    ``name=value`` renders as ``--name value``; ``None`` is skipped."""
    argv: List[str] = []
    for name, value in settings.items():
        if value is not None:
            # The one flag literal outside cli.py: CI's grep exempts the marker.
            argv += ["--" + name.replace("_", "-"), str(value)]  # serve_argv
    return argv


class ServeChild:
    """One ``cli serve`` subprocess: spawn, learn its ports, kill or drain."""

    def __init__(
        self,
        settings: Mapping[str, object],
        name: str = "serve child",
    ) -> None:
        #: ``cli serve`` flags by name, rendered at every :meth:`start`.
        self.settings = dict(settings)
        self.name = name
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port: Optional[int] = None
        self.repl_port: Optional[int] = None
        self.output: List[bytes] = []
        self._pump: Optional[asyncio.Task] = None

    @property
    def alive(self) -> bool:
        """False once the harness has reaped the process."""
        return self.proc is not None and self.proc.returncode is None

    async def start(self) -> int:
        """Spawn and wait for the serving line; returns the bound port.

        May be called again once the child is dead: ``output`` keeps
        accumulating across restarts, the ports are learned afresh.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
        self.repl_port = None
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.experiments.cli",
            "serve",
            *serve_argv(**self.settings),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=env,
        )
        try:
            self.port = await asyncio.wait_for(self._await_port(), START_TIMEOUT)
        except BaseException:
            # A child that missed its deadline (or died, or whose caller
            # was cancelled) still holds a journal dir and maybe a port.
            await self.kill()
            raise
        self._pump = asyncio.get_running_loop().create_task(
            self._drain_output()
        )
        return self.port

    async def _await_port(self) -> int:
        assert self.proc is not None and self.proc.stdout is not None
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"{self.name} exited before binding: " + self.text()
                )
            self.output.append(line)
            match = _REPL_RE.search(line)
            if match:
                self.repl_port = int(match.group(2))
            match = _SERVING_RE.search(line)
            if match:
                return int(match.group(2))

    async def _drain_output(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                return
            self.output.append(line)

    async def kill(self) -> None:
        """SIGKILL and reap."""
        await self._signal(signal.SIGKILL)

    async def drain(self) -> int:
        """Graceful SIGTERM; returns the exit code."""
        return await self._signal(signal.SIGTERM)

    async def _signal(self, signum: int) -> int:
        assert self.proc is not None
        try:
            self.proc.send_signal(signum)
        except ProcessLookupError:
            pass
        code = await self.proc.wait()
        if self._pump is not None:
            try:
                await asyncio.wait_for(self._pump, 5.0)
            except (asyncio.TimeoutError, TimeoutError):
                self._pump.cancel()
            self._pump = None
        return code

    def text(self) -> str:
        return b"".join(self.output).decode(errors="replace")

    def incidents(self) -> List[str]:
        """The ``recovery:`` / ``incident:`` lines the child printed."""
        return [
            line.strip()
            for line in self.text().splitlines()
            if "recovery:" in line or "incident:" in line
        ]


def raw_client(port: int) -> MemcacheClient:
    """One persistent connection, one attempt, no retry.

    What a plain memcached client sees — and, because nothing is ever
    re-sent, the shape in which ``ConnectionRefusedError`` proves that no
    byte of the request left this process.
    """
    return MemcacheClient(
        HOST, port, pool_size=1, deadline=5.0,
        retry=RetryPolicy(max_attempts=1),
    )


@contextlib.asynccontextmanager
async def closing(client):
    """``async with closing(SomeClient(...)) as client`` — closed on exit."""
    try:
        yield client
    finally:
        await client.close()


# -- the oracle -----------------------------------------------------------------


#: Verdicts no durability rule excuses: no write of this run, acked or
#: not, can have put those bytes there.
FABRICATED = ("wrong", "unwritten")


class Oracle:
    """Ground truth: per-key acknowledged state, surviving across rounds.

    Every value is a pure function of ``(seed, lane, key, version)``, so
    a returned value names the version it is — or proves itself
    fabricated.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: (lane, key_id) -> version acked, or UNKNOWN / TOMBSTONE.
        self.state: Dict[Tuple[int, int], int] = {}
        #: (lane, key_id) -> highest version ever *attempted*.
        self.attempted: Dict[Tuple[int, int], int] = {}

    def attempt(self, lane: int, key_id: int) -> Tuple[int, bytes]:
        """Reserve the key's next version; returns ``(version, bytes)``."""
        slot = (lane, key_id)
        version = self.attempted.get(slot, 0) + 1
        self.attempted[slot] = version
        return version, expected_value(self.seed, lane, key_id, version)

    def judge(self, lane: int, key_id: int, value: Optional[bytes]) -> str:
        """Classify a read (``None`` = miss).  The verdict says what was
        seen; how bad that is depends on what the server promised, so
        each report books it under its own durability rule
        (:meth:`CampaignReport.tally`).

        ============  ==================================================
        ok            consistent with everything acknowledged
        missing       a miss, and the key's last write was acknowledged
        older         a hit on such a key with another version's bytes
        resurrection  a hit, and the key's delete was acknowledged
        unwritten     a hit on a key this oracle never wrote
        wrong         bytes no attempted version of the key looks like
        ============  ==================================================
        """
        state = self.state.get((lane, key_id))
        if value is None:
            return "missing" if state is not None and state >= 0 else "ok"
        if state is None:
            return "unwritten"
        matched = self._match_version(lane, key_id, value)
        if matched is None:
            return "wrong"
        if state == UNKNOWN:
            return "ok"
        if state == TOMBSTONE:
            return "resurrection"
        return "ok" if matched == state else "older"

    def _match_version(
        self, lane: int, key_id: int, value: bytes
    ) -> Optional[int]:
        # In-flight attempts may have applied without an ack, so the
        # search ceiling is the attempt counter, not the acked version.
        ceiling = self.attempted.get((lane, key_id), 0)
        for version in range(ceiling, 0, -1):
            if value == expected_value(self.seed, lane, key_id, version):
                return version
        return None

    def lanes(self) -> Iterator[Tuple[int, List[int]]]:
        """Deterministic walk of the keyspace: ``(lane, sorted key ids)``."""
        for lane in sorted({owner for (owner, _key_id) in self.state}):
            yield lane, sorted(
                key_id for (owner, key_id) in self.state if owner == lane
            )


# -- configuration, per-round record, verdict -----------------------------------


@dataclass
class TrafficConfig:
    """One round of seeded traffic: how many connections draw how many
    ops, over which keys, in what mix (see :func:`op_stream`)."""

    seed: int = 0
    connections: int = 3
    #: Ops per connection per round (the event lands somewhere inside).
    requests_per_conn: int = 150
    keys_per_conn: int = 120
    set_fraction: float = 0.5
    delete_fraction: float = 0.08

    def validate(self) -> None:
        if self.connections < 1 or self.requests_per_conn < 1:
            raise ConfigurationError("connections and requests_per_conn must be >= 1")
        if self.keys_per_conn < 1:
            raise ConfigurationError("keys_per_conn must be >= 1")
        if not 0.0 <= self.set_fraction + self.delete_fraction <= 1.0:
            raise ConfigurationError("set_fraction + delete_fraction must be in [0, 1]")

    def traffic(self) -> str:
        """The tail of every ``render()`` header line."""
        return (
            f"connections={self.connections} "
            f"requests_per_conn={self.requests_per_conn} "
            f"keys_per_conn={self.keys_per_conn} seed={self.seed}"
        )


@dataclass
class CampaignConfig(TrafficConfig):
    """The traffic, plus the process settings a campaign chooses for its
    ``cli serve`` children."""

    fsync: str = "always"
    capacity: int = 8 * 1024 * 1024
    shards: int = 2
    workdir: Optional[str] = None
    #: Small on purpose: rotations and checkpoints must happen *during*
    #: rounds so kills land inside them.
    segment_bytes: int = 16 * 1024
    checkpoint_bytes: int = 48 * 1024

    def validate(self) -> None:
        super().validate()
        if self.fsync not in ("always", "interval", "never"):
            raise ConfigurationError(f"unknown fsync policy {self.fsync!r}")

    def serve(self, **particular: object) -> Dict[str, object]:
        """Settings of one child of this campaign; ``particular`` is
        what only that child sets."""
        return {
            "port": 0,
            "seed": self.seed,
            "capacity": self.capacity,
            "shards": self.shards,
            **CHILD_TIMEOUTS,
            **particular,
        }

    def journal(self) -> Dict[str, object]:
        """The journal settings of a durable child (beside its own
        ``journal_dir``)."""
        return {
            "fsync": self.fsync,
            "journal_segment_bytes": self.segment_bytes,
            "checkpoint_bytes": self.checkpoint_bytes,
        }


@dataclass
class SweepCount:
    """What one :func:`sweep` saw (metrics; ``unverified`` feeds the verdict)."""

    label: str
    #: Taken with a target known to be down (its keys were skipped).
    degraded: bool = False
    judged: int = 0
    #: Judged keys whose state was UNKNOWN, i.e. exempt from the loss check.
    unknown: int = 0
    #: Keys in batches whose multiget raised: nothing was checked.
    unverified: int = 0
    skipped: int = 0


@dataclass
class RoundOutcome:
    """Timing-dependent per-round record (metrics only)."""

    round_index: int
    #: Seeded op count at which the round's event fires (0 = no event).
    event_after_ops: int = 0
    #: Ops sent, by kind (``set`` / ``delete`` / ``get``).
    issued: Counter = field(default_factory=Counter)
    acked_sets: int = 0
    acked_deletes: int = 0
    hits: int = 0
    misses: int = 0
    failed_ops: int = 0
    lost_unsynced: int = 0
    sweeps: List[SweepCount] = field(default_factory=list)

    @property
    def ops_issued(self) -> int:
        return sum(self.issued.values())

    @property
    def verified_keys(self) -> int:
        return sum(c.judged for c in self.sweeps if not c.degraded)

    def traffic(self) -> str:
        return (
            f"issued={self.ops_issued} acked_sets={self.acked_sets} "
            f"acked_deletes={self.acked_deletes} failed={self.failed_ops} "
            f"verified={self.verified_keys} lost={self.lost_unsynced}"
        )

    def describe(self) -> str:
        return (
            f"round {self.round_index}: kill_after={self.event_after_ops} "
            + self.traffic()
        )


@dataclass
class CampaignReport:
    """Campaign verdict; ``render()`` is byte-deterministic per config.

    ``render()`` may print only pure functions of the config and the
    counters that are zero when the system is correct; everything that
    follows the wall clock belongs in ``render_metrics()``.
    """

    config: CampaignConfig
    wrong_bytes: int = 0
    acked_write_loss: int = 0
    deleted_resurrections: int = 0
    lost_unsynced: int = 0
    #: Drivers that raised (each is also a violation).
    crashes: int = 0
    rounds: List[RoundOutcome] = field(default_factory=list)
    incidents: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def enforced(self) -> bool:
        """Loss and staleness are fatal only under ``fsync=always``;
        under the relaxed policies they are the documented trade and are
        counted as bounded loss.  Wrong bytes are fatal everywhere."""
        return self.config.fsync == "always"

    # -- booking ---------------------------------------------------------------

    def tally(self, verdict: str, outcome: RoundOutcome) -> None:
        """Book one :meth:`Oracle.judge` verdict under the journalled
        server's rule: an acknowledged write may be neither missing nor
        older, an acknowledged delete may not come back."""
        if verdict == "ok":
            return
        if verdict in FABRICATED:
            self.wrong_bytes += 1
        elif not self.enforced:
            self.bounded_loss(outcome)
        elif verdict == "resurrection":
            self.deleted_resurrections += 1
        else:
            self.acked_write_loss += 1

    def bounded_loss(self, outcome: RoundOutcome) -> None:
        self.lost_unsynced += 1
        outcome.lost_unsynced += 1

    def book_crashes(self, results: Sequence[object]) -> None:
        """A driver that raised is a harness-visible failure, not noise."""
        for result in results:
            if isinstance(result, BaseException):
                self.crashes += 1
                self.violations.append(
                    f"driver crashed: {type(result).__name__}: {result}"
                )

    # -- the shared clauses of finalise() --------------------------------------

    def check_bytes(self) -> None:
        if self.wrong_bytes:
            self.violations.append(
                f"{self.wrong_bytes} reads returned bytes matching no "
                "version ever written"
            )

    def check_durability(self) -> None:
        if not self.enforced:
            return
        if self.acked_write_loss:
            self.violations.append(
                f"{self.acked_write_loss} acknowledged writes lost "
                "under fsync=always"
            )
        if self.deleted_resurrections:
            self.violations.append(
                f"{self.deleted_resurrections} acknowledged deletes "
                "resurrected under fsync=always"
            )

    def check_sweeps(self) -> None:
        """A sweep with every target up that could not read a batch
        verified nothing there, and must not print ``OK``."""
        unverified = sum(
            count.unverified
            for outcome in self.rounds
            for count in outcome.sweeps
            if not count.degraded
        )
        if unverified:
            self.violations.append(
                f"sweep could not verify {unverified} keys"
            )

    def check_drain(self, code: int) -> None:
        if code != 0:
            self.violations.append(
                f"final graceful drain exited {code}, expected 0"
            )

    # -- rendering -------------------------------------------------------------

    def if_enforced(self, count: int) -> str:
        if self.enforced:
            return str(count)
        return f"not enforced (fsync={self.config.fsync})"

    def durability_lines(self) -> List[str]:
        return [
            f"acked_write_loss: {self.if_enforced(self.acked_write_loss)}",
            "deleted_resurrections: "
            + self.if_enforced(self.deleted_resurrections),
        ]

    def verdict_lines(self, ok_line: str) -> List[str]:
        if not self.violations:
            return [f"OK: {ok_line}"]
        return [f"FAIL ({len(self.violations)} violations)"] + [
            f"  - {violation}" for violation in self.violations
        ]

    def render_metrics(self) -> str:
        lines = [
            f"rounds: {len(self.rounds)}",
            f"lost_unsynced: {self.lost_unsynced}",
        ]
        for outcome in self.rounds:
            lines.append("  " + outcome.describe())
            for count in outcome.sweeps:
                lines.append(
                    f"    sweep {count.label}: judged={count.judged} "
                    f"unknown={count.unknown} unverified={count.unverified}"
                    + (f" dead_arc={count.skipped}" if count.degraded else "")
                )
        lines.extend(f"  {incident}" for incident in self.incidents)
        return "\n".join(lines)


# -- one round: drive, fire, sweep ----------------------------------------------


def event_point(
    rng: random.Random, config: TrafficConfig, lo: float, hi: float
) -> int:
    """Seeded op count for a round's event, inside ``[lo, hi]`` of the
    round's op budget so there is traffic both before and after it."""
    total_ops = config.connections * config.requests_per_conn
    return rng.randint(
        max(1, int(total_ops * lo)), max(1, int(total_ops * hi))
    )


def hot_key(rng: random.Random, keys_per_conn: int) -> int:
    """Quadratic skew: low key ids are hot, high ids are the long tail
    the Z-zone exists for."""
    return min(int(keys_per_conn * rng.random() ** 2), keys_per_conn - 1)


def op_stream(config: TrafficConfig, label: str) -> Iterator[Tuple[str, int]]:
    """One connection's ``(op, key_id)`` draws: a pure function of
    ``(config.seed, label)`` and the config's op mix and key space."""
    rng = random.Random(derive_seed(config.seed, label))
    for _position in range(config.requests_per_conn):
        draw = rng.random()
        key_id = hot_key(rng, config.keys_per_conn)
        if draw < config.set_fraction:
            yield "set", key_id
        elif draw < config.set_fraction + config.delete_fraction:
            yield "delete", key_id
        else:
            yield "get", key_id


async def fire_after(
    counter: List[int],
    threshold: int,
    tasks: Sequence[asyncio.Task],
    event: Callable[[], Awaitable[None]],
) -> None:
    """Fire ``event`` once ``threshold`` ops have been issued (or the
    drivers ran out of ops first — the event still happens)."""
    while counter[0] < threshold and not all(task.done() for task in tasks):
        await asyncio.sleep(0.002)
    await event()


async def drive(
    config: TrafficConfig,
    oracle: Oracle,
    stream: str,
    clients: Sequence[object],
    reaped: Callable[[bytes], bool],
    outcome: RoundOutcome,
    report: CampaignReport,
    on_event: Callable[[], Awaitable[None]],
    stop: Optional[asyncio.Event] = None,
) -> None:
    """One round of traffic: connection ``i`` draws
    ``op_stream(config, f"{stream}{i}")`` into ``clients[i]`` (anything
    with ``set``/``delete``/``get``/``close``), and ``on_event`` fires
    once ``outcome.event_after_ops`` ops have been issued.  ``stream``
    is the whole label prefix (``"crash-ops-r3-c"``,
    ``"loadgen-ops-conn"``): the labels predate the kit, and a seed's
    traffic must not move.

    ``reaped(key)`` must say whether the child ``key`` is addressed to
    has already been reaped; ``stop``, once set, ends the drivers early.
    The clients are closed before returning.  A client that re-sends a
    request must not let a bare :data:`NEVER_SENT` error escape (an
    earlier attempt may have landed): :func:`raw_client` never re-sends,
    ``ClusterClient`` wraps what its retries raise in ``NodeDownError``.
    """
    counter = [0]
    tasks = [
        asyncio.create_task(
            _drive_connection(
                config, oracle, conn_id, f"{stream}{conn_id}", client,
                reaped, outcome, report, counter, stop,
            )
        )
        for conn_id, client in enumerate(clients)
    ]
    trigger = asyncio.create_task(
        fire_after(counter, outcome.event_after_ops, tasks, on_event)
    )
    results = await asyncio.gather(*tasks, return_exceptions=True)
    try:
        await trigger
    finally:
        for client in set(clients):
            await client.close()
    report.book_crashes(results)


async def _drive_connection(
    config: TrafficConfig,
    oracle: Oracle,
    conn_id: int,
    label: str,
    client,
    reaped: Callable[[bytes], bool],
    outcome: RoundOutcome,
    report: CampaignReport,
    counter: List[int],
    stop: Optional[asyncio.Event],
) -> None:
    for op, key_id in op_stream(config, label):
        if stop is not None and stop.is_set():
            break
        counter[0] += 1
        outcome.issued[op] += 1
        key = key_name(conn_id, key_id)
        slot = (conn_id, key_id)
        # Asked *before* the op: a child reaped by now can apply nothing,
        # one reaped while the op is in flight may have applied it.
        gone = reaped(key)
        try:
            if op == "set":
                version, value = oracle.attempt(conn_id, key_id)
                if await client.set(key, value):
                    oracle.state[slot] = version
                    outcome.acked_sets += 1
            elif op == "delete":
                await client.delete(key)
                # DELETED and NOT_FOUND both acknowledge "key is now absent".
                oracle.state[slot] = TOMBSTONE
                outcome.acked_deletes += 1
            else:
                value = await client.get(key)
                if value is None:
                    outcome.misses += 1
                else:
                    outcome.hits += 1
                report.tally(oracle.judge(conn_id, key_id, value), outcome)
        except OP_FAILURES as exc:
            outcome.failed_ops += 1
            # See the module doc.  NEVER_SENT proves nothing was sent
            # only on a client that never re-sends (raw_client); a
            # retrying client surfaces its own error types instead.
            if op != "get" and not gone and not isinstance(exc, NEVER_SENT):
                oracle.state[slot] = UNKNOWN


async def sweep(
    oracle: Oracle,
    get_many: Callable[[List[bytes]], Awaitable[Dict[bytes, bytes]]],
    tally: Callable[[str, RoundOutcome], None],
    outcome: RoundOutcome,
    label: str,
    skip: Optional[Callable[[bytes], bool]] = None,
) -> SweepCount:
    """Judge every key the oracle has an opinion about.

    ``tally(verdict, outcome)`` books each verdict.  ``skip(key)`` marks
    keys that cannot be judged because their target is known to be down
    (the degraded probe): a sweep given one is a *degraded* sweep, whose
    unreadable batches stay a metric; on any other sweep they become a
    violation (:meth:`CampaignReport.check_sweeps`).
    """
    count = SweepCount(label=label, degraded=skip is not None)
    outcome.sweeps.append(count)
    for lane, key_ids in oracle.lanes():
        for start in range(0, len(key_ids), SWEEP_BATCH):
            batch = key_ids[start : start + SWEEP_BATCH]
            keys = [key_name(lane, key_id) for key_id in batch]
            try:
                found = await get_many(keys)
            except ServingError:
                count.unverified += len(batch)
                continue
            for key_id, key in zip(batch, keys):
                if skip is not None and skip(key):
                    count.skipped += 1
                    continue
                count.judged += 1
                count.unknown += oracle.state[(lane, key_id)] == UNKNOWN
                tally(oracle.judge(lane, key_id, found.get(key)), outcome)
    return count
