"""The harness kit (repro.harness): one subprocess, everything else in-process.

The digests below were computed at the commit *before* the kit existed,
by running that commit's ``_CrashDriver`` / ``_ClusterDriver`` with the
wire stubbed out and by reading the ``kill_after=`` / ``event_after=`` /
``victim=`` fields off its real campaign runs.  They prove the kit drives
the same traffic at the same seeds, not merely that it prints the same
verdict.
"""

import asyncio
import hashlib
import os
import random

import pytest

from repro.cluster.chaos import KILL_FRACTION_HI as CLUSTER_HI
from repro.cluster.chaos import KILL_FRACTION_LO as CLUSTER_LO
from repro.cluster.chaos import ClusterChaosConfig, _Campaign as ClusterCampaign
from repro.common.errors import NodeDownError, RequestTimeoutError
from repro.common.rng import derive_seed
from repro.harness import (
    TOMBSTONE,
    UNKNOWN,
    CampaignConfig,
    CampaignReport,
    Oracle,
    RequestCut,
    RoundOutcome,
    ServeChild,
    drive,
    event_point,
    expected_value,
    key_name,
    op_stream,
    serve_argv,
    sweep,
)
from repro.experiments.cli import build_parser
from repro.server.crash import (
    KILL_FRACTION_HI,
    KILL_FRACTION_LO,
    CrashConfig,
    run_crash_chaos,
)
from repro.server.loadgen import LoadConfig
from repro.server.replchaos import (
    EVENT_FRACTION_HI,
    EVENT_FRACTION_LO,
    ReplChaosConfig,
    build_plan,
    run_replication_chaos,
)

SEED = 11


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# -- the oracle's verdict table -------------------------------------------------

#: Three versions attempted; what the oracle believes is the row.
_STATES = {"acked": 2, "unknown": UNKNOWN, "tombstone": TOMBSTONE, "never": None}
_READS = {
    "current": 2, "older": 1, "in_flight": 3, "fabricated": "x", "miss": None,
}
_TABLE = {
    # An acked key must read back as exactly the acked version.  Gone
    # (legal where eviction is) and another version (never legal) are
    # told apart; so are the two ways bytes can come from nowhere.
    "acked": dict(current="ok", older="older", in_flight="older",
                  fabricated="wrong", miss="missing"),
    # UNKNOWN exempts the key from the loss check, never from the bytes check.
    "unknown": dict(current="ok", older="ok", in_flight="ok",
                    fabricated="wrong", miss="ok"),
    "tombstone": dict(current="resurrection", older="resurrection",
                      in_flight="resurrection", fabricated="wrong", miss="ok"),
    # Nothing was ever sent for this key: a hit is not this run's doing,
    # whatever the bytes look like (a warm server may hold them).
    "never": dict(current="unwritten", older="unwritten",
                  in_flight="unwritten", fabricated="unwritten", miss="ok"),
}


@pytest.mark.parametrize("state", sorted(_STATES))
@pytest.mark.parametrize("read", sorted(_READS))
def test_oracle_verdict_table(state, read):
    oracle = Oracle(SEED)
    if _STATES[state] is not None:
        oracle.attempted[(0, 5)] = 3
        oracle.state[(0, 5)] = _STATES[state]
    version = _READS[read]
    if version is None:
        value = None
    elif version == "x":
        value = expected_value(SEED, 0, 6, 1)  # another key's bytes
    else:
        value = expected_value(SEED, 0, 5, version)
    assert oracle.judge(0, 5, value) == _TABLE[state][read]


def test_oracle_attempt_reserves_the_next_version():
    oracle = Oracle(SEED)
    assert oracle.attempt(1, 4) == (1, expected_value(SEED, 1, 4, 1))
    assert oracle.attempt(1, 4) == (2, expected_value(SEED, 1, 4, 2))
    assert oracle.state == {}  # attempting acknowledges nothing


# -- same traffic as before the kit ---------------------------------------------

_OP_STREAM_GOLDENS = {
    "crash-ops-r0-c0": "689ab48ae20710090715be1d62c11b10259864464d08020bf92ba5f9bf7932bc",
    "crash-ops-r0-c1": "795e9139218d4ca29f2fbf1f846d7a76d912eb311af84979172f855fabdd6b93",
    "crash-ops-r1-c0": "740c6a8ffd8d06e854b033f111a09588569829e0388d40267ba546fd3e6d5fcf",
    "crash-ops-r1-c1": "a8d27f647f9dae91ccc5db657dc07422c06028d7d361eedf50f5658b7d7e8340",
    "cluster-ops-r0-c0": "2e98fa71c39d5d8decad8457c0695252ff793e151304bddd0dcb73e619d2530d",
    "cluster-ops-r0-c1": "da907ecd0619420d93f8fcb53177c1dea82152350320caf01a41515bbbe82a57",
    "cluster-ops-r1-c0": "b6930702eb2c397bce36868f559f728a5faeb9e8f03ca8cca4829b2181b358de",
    "cluster-ops-r1-c1": "dab56be2cb3d2f27cc20ee88ba0dadd39b9bce41c28d9ea090f898e9681e5d3b",
    # Taken from the loadgen's own driver before it moved onto the kit.
    "loadgen-ops-conn0": "249db32d26065b80b5fbada1a66d8b9df8897587cf1f6b97e874ca21f1df3d75",
    "loadgen-ops-conn1": "40a8601552ac6311eba06635ff357f7a19d864ab35ddd9345ecd7a853c296d52",
}


@pytest.mark.parametrize("label", sorted(_OP_STREAM_GOLDENS))
def test_op_stream_golden(label):
    # Default key space and op mix, as every campaign config has them.
    config = CampaignConfig(seed=SEED, requests_per_conn=200)
    draws = list(op_stream(config, label))
    assert len(draws) == 200
    assert _digest(draws) == _OP_STREAM_GOLDENS[label]


def test_event_points_golden():
    # cli chaos --crash --crash-points 20 --seed 11
    crash = CrashConfig(seed=11, connections=4, requests_per_conn=500)
    rng = random.Random(derive_seed(11, "crash-kill-points"))
    kills = [
        event_point(rng, crash, KILL_FRACTION_LO, KILL_FRACTION_HI)
        for _ in range(20)
    ]
    assert kills[:4] == [1471, 1261, 425, 976]
    assert _digest(kills) == (
        "3597790721445fa4fde23828137c959188165e210f39277b3c342dc43ae783b9"
    )
    # cli chaos --replication --link-points 4 --connections 2
    #   --requests 960 --keys 80 --seed 11
    repl = ReplChaosConfig(
        seed=11, link_points=4, connections=2, requests_per_conn=80
    )
    rng = random.Random(derive_seed(11, "repl-event-points"))
    assert [
        event_point(rng, repl, EVENT_FRACTION_LO, EVENT_FRACTION_HI)
        for _ in range(6)
    ] == [46, 57, 50, 59, 79, 36]
    # cli chaos --cluster --nodes 3 --kill-points 3 --connections 3
    #   --requests 1800 --keys 240 --seed 19: victim, then the point.
    cluster = ClusterChaosConfig(seed=19, connections=3, requests_per_conn=200)
    rng = random.Random(derive_seed(19, "cluster-kill-points"))
    assert [
        (rng.randrange(3), event_point(rng, cluster, CLUSTER_LO, CLUSTER_HI))
        for _ in range(3)
    ] == [(1, 361), (1, 354), (0, 403)]


def test_build_plan_golden():
    assert build_plan(ReplChaosConfig(seed=11, link_points=4)) == [
        "resync", "stall", "reset", "partition", "kill_restart", "kill_promote",
    ]
    assert _digest(build_plan(ReplChaosConfig(seed=11, link_points=10))) == (
        "e17353b79c9839f01d1f7a3fd6b0db82012e1cceafc9c1b3e21d04ac9d5d2b83"
    )


@pytest.mark.parametrize("config_type", [CampaignConfig, LoadConfig])
def test_op_mix_must_fit_in_one(config_type):
    config_type(set_fraction=0.7, delete_fraction=0.3).validate()
    with pytest.raises(ValueError, match="set_fraction"):
        config_type(set_fraction=0.7, delete_fraction=0.4).validate()


# -- when a key may become UNKNOWN ----------------------------------------------


class _FailingClient:
    """Every op raises ``error``; counts what it was asked to do."""

    def __init__(self, error: BaseException) -> None:
        self.error = error
        self.calls = 0

    async def set(self, key, value=None):
        self.calls += 1
        raise self.error

    delete = get = set

    async def close(self):
        pass


def _drive_against(error, reaped: bool):
    """One connection of pure mutations against a client that always
    fails; returns (oracle, the state it started with)."""
    config = CampaignConfig(
        seed=SEED, connections=1, requests_per_conn=40, keys_per_conn=8,
        set_fraction=0.7, delete_fraction=0.3,
    )
    oracle = Oracle(SEED)
    for key_id in range(config.keys_per_conn):
        version, _value = oracle.attempt(0, key_id)
        oracle.state[(0, key_id)] = version
    before = dict(oracle.state)
    outcome = RoundOutcome(0)
    report = CampaignReport(config=config)
    client = _FailingClient(error)

    async def no_event():
        pass

    asyncio.run(
        drive(config, oracle, "t", [client], lambda _key: reaped, outcome,
              report, no_event)
    )
    assert report.ok and outcome.failed_ops == client.calls == 40
    return oracle, before


def test_op_on_a_reaped_target_leaves_the_oracle_standing():
    oracle, before = _drive_against(ConnectionResetError("peer died"), True)
    assert oracle.state == before
    oracle, before = _drive_against(NodeDownError("node1 unreachable"), True)
    assert oracle.state == before


def test_refused_connect_leaves_the_oracle_standing():
    oracle, before = _drive_against(ConnectionRefusedError("nobody home"), False)
    assert oracle.state == before


def test_wire_fault_abort_leaves_the_oracle_standing():
    # The loadgen's conn.reset / conn.stall cut the request short of its
    # last byte; the server discards the partial frame.
    oracle, before = _drive_against(RequestCut("conn.reset"), False)
    assert oracle.state == before


@pytest.mark.parametrize(
    "error",
    [ConnectionResetError("cut"), RequestTimeoutError("late"), EOFError()],
)
def test_partly_written_request_goes_unknown(error):
    oracle, before = _drive_against(error, False)
    touched = {slot for slot, state in oracle.state.items() if state == UNKNOWN}
    assert touched and all(
        oracle.state[slot] == before[slot]
        for slot in oracle.state
        if slot not in touched
    )


def test_driver_exception_is_a_violation():
    config = CampaignConfig(seed=SEED, connections=1, requests_per_conn=5)
    report = CampaignReport(config=config)

    async def no_event():
        pass

    asyncio.run(
        drive(config, Oracle(SEED), "t", [_FailingClient(KeyError("bug"))],
              lambda _key: False, RoundOutcome(0), report, no_event)
    )
    assert report.violations == ["driver crashed: KeyError: 'bug'"]


# -- the sweep ------------------------------------------------------------------


def _swept(get_many, skip=None):
    config = CampaignConfig(seed=SEED)
    oracle = Oracle(SEED)
    stored = {}
    for lane in (0, 1):
        for key_id in range(20):
            version, value = oracle.attempt(lane, key_id)
            oracle.state[(lane, key_id)] = version
            stored[key_name(lane, key_id)] = value
    oracle.state[(1, 3)] = UNKNOWN
    report = CampaignReport(config=config)
    outcome = RoundOutcome(0)
    report.rounds.append(outcome)
    count = asyncio.run(
        sweep(oracle, lambda keys: get_many(stored, keys), report.tally,
              outcome, "t", skip=skip)
    )
    report.check_sweeps()
    return report, outcome, count


async def _serve(stored, keys):
    assert len(keys) <= 16
    return {key: stored[key] for key in keys}


async def _raise_on_lane_1(stored, keys):
    if keys[0].startswith(b"lg:01"):
        raise RequestTimeoutError("request missed its 5.0s deadline")
    return await _serve(stored, keys)


def test_sweep_judges_every_key_and_counts_unknown():
    report, outcome, count = _swept(_serve)
    assert report.ok
    assert (count.judged, count.unknown, count.unverified) == (40, 1, 0)
    assert outcome.verified_keys == 40
    assert "sweep t: judged=40 unknown=1 unverified=0" in report.render_metrics()


def test_sweep_batch_that_raises_is_a_violation():
    report, outcome, count = _swept(_raise_on_lane_1)
    assert (count.judged, count.unverified) == (20, 20)
    assert report.violations == ["sweep could not verify 20 keys"]


def test_degraded_sweep_keeps_unreadable_batches_as_a_metric():
    report, outcome, count = _swept(
        _raise_on_lane_1, skip=lambda key: key.endswith(b"7")
    )
    assert report.ok
    assert (count.judged, count.skipped, count.unverified) == (18, 2, 20)
    assert outcome.verified_keys == 0  # a degraded probe verifies no recovery


def test_sweep_books_loss_through_the_tally():
    async def lose_one(stored, keys):
        found = await _serve(stored, keys)
        found.pop(key_name(0, 2), None)
        return found

    report, _outcome, _count = _swept(lose_one)
    assert (report.acked_write_loss, report.wrong_bytes) == (1, 0)


# -- the shared verdict tail ----------------------------------------------------


def test_verdict_tail_renders_as_before():
    relaxed = CampaignReport(config=CampaignConfig(fsync="interval"))
    relaxed.tally("missing", RoundOutcome(0))
    relaxed.check_durability()
    assert relaxed.durability_lines() == [
        "acked_write_loss: not enforced (fsync=interval)",
        "deleted_resurrections: not enforced (fsync=interval)",
    ]
    assert relaxed.lost_unsynced == 1 and relaxed.ok
    assert relaxed.verdict_lines("fine") == ["OK: fine"]

    strict = CampaignReport(config=CampaignConfig(fsync="always"))
    strict.tally("older", RoundOutcome(0))
    strict.tally("resurrection", RoundOutcome(0))
    strict.tally("unwritten", RoundOutcome(0))
    strict.check_bytes()
    strict.check_durability()
    strict.check_drain(1)
    assert strict.durability_lines() == [
        "acked_write_loss: 1", "deleted_resurrections: 1",
    ]
    assert strict.verdict_lines("fine") == [
        "FAIL (4 violations)",
        "  - 1 reads returned bytes matching no version ever written",
        "  - 1 acknowledged writes lost under fsync=always",
        "  - 1 acknowledged deletes resurrected under fsync=always",
        "  - final graceful drain exited 1, expected 0",
    ]


# -- every child a campaign describes is a command line `cli serve` reads --------


def test_serve_argv_is_one_rule():
    assert serve_argv(port=0, snapshot=None, read_timeout=10.0, fsync="always") == [
        "--port", "0", "--read-timeout", "10.0", "--fsync", "always",
    ]


def _assert_reads_back(settings):
    """A renamed or dropped ``cli serve`` flag fails here, not as "serve
    child exited before binding" in the middle of a campaign."""
    args = build_parser().parse_args(["serve", *serve_argv(**settings)])
    assert {name: getattr(args, name) for name in settings} == settings


class _AllDescribed(Exception):
    pass


def _children_of(monkeypatch, run, **kwargs):
    """What a campaign's children are started with, in start order, none
    spawned: the stand-in ``start`` hands a replication primary made-up
    ports (its replica is described next) and ends the run at any other
    child."""
    started = []

    async def start(child):
        started.append(dict(child.settings))
        if "repl_port" not in child.settings:
            raise _AllDescribed
        child.port, child.repl_port = 1, 2
        return child.port

    monkeypatch.setattr(ServeChild, "start", start)
    with pytest.raises(_AllDescribed):
        run(seed=SEED, **kwargs)
    return started


def test_campaign_children_round_trip_through_the_serve_parser(
    monkeypatch, tmp_path
):
    journal = {
        "fsync": "interval", "journal_segment_bytes": 16 * 1024,
        "checkpoint_bytes": 48 * 1024,
    }
    (crash,) = _children_of(
        monkeypatch, run_crash_chaos, fsync="interval", workdir=str(tmp_path)
    )
    assert crash == {
        "port": 0, "seed": SEED, "capacity": 8 << 20, "shards": 2,
        "read_timeout": 10.0,
        "journal_dir": str(tmp_path / "journal"), **journal,
        "scrub_interval": 1.0,
    }
    _assert_reads_back(crash)

    primary, replica = _children_of(
        monkeypatch, run_replication_chaos, workdir=str(tmp_path)
    )
    assert primary["journal_segment_bytes"] == 8 * 1024
    assert primary["repl_port"] == 0
    assert replica["role"] == "replica" and "journal_dir" not in replica
    _assert_reads_back(primary)
    _assert_reads_back(replica)

    config = ClusterChaosConfig(seed=SEED, fsync="interval", workdir=str(tmp_path))
    node = ClusterCampaign(config).supervisor.nodes[1]
    started = []

    async def learn_port(child):
        started.append(dict(child.settings))
        child.port = 4242
        return child.port

    monkeypatch.setattr(ServeChild, "start", learn_port)
    asyncio.run(node.start())
    asyncio.run(node.start())  # a restart rebinds the port the first learned
    first, restarted = started
    assert first == {
        "read_timeout": 10.0, "capacity": 8 << 20,
        "shards": 2, **journal, "host": "127.0.0.1", "port": 0,
        "seed": derive_seed(SEED, "cluster-node1"),
        "journal_dir": str(tmp_path / "node1" / "journal"),
    }
    assert restarted == {**first, "port": 4242}
    _assert_reads_back(first)
    _assert_reads_back(restarted)


# -- the one real process -------------------------------------------------------


def test_child_that_misses_its_start_deadline_is_reaped(tmp_path, monkeypatch):
    # Far shorter than interpreter start-up: the serving line cannot
    # arrive in time.
    monkeypatch.setattr("repro.harness.START_TIMEOUT", 0.05)
    child = ServeChild({"port": 0, "journal_dir": str(tmp_path / "journal")})
    with pytest.raises(TimeoutError):
        asyncio.run(child.start())
    assert not child.alive
    with pytest.raises(ProcessLookupError):
        os.kill(child.proc.pid, 0)
