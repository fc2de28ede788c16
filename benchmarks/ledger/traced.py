"""The traced run: the same load, in-process, every layer timed from outside.

No file under ``src/`` knows it is being measured.  The server is built
the way ``cli serve`` builds it (``build_parser()`` supplies the shipped
defaults) and runs on its own event loop in a thread, driven over
loopback TCP by the same client as the live run.  Timing proxies hang on
the seams the code already offers — each shard's public ``nzone`` and
``zzone`` attributes, the Z-zone's public ``compressor``,
``attach_journal``, the public ``durability.checkpoint`` — and
``CacheServer(cache, config, admission=…)`` receives a timed cache and a
timed ``AdmissionController``.  Every proxy call is a span
``(name, start, end, parent, request)``; the client opens the root span
of each request, and because the loop is closed exactly one request is in
flight, so a plain stack gives the parents.  A layer's self time is its
spans' duration minus their children's.

Three more in-process servers give what spans cannot:

* the **plain twin** — the same server without a single proxy, fed the
  same ops: ``trace.overhead_share`` is what tracing cost, and its
  request time is the one the layers must explain.  It feeds no
  end-to-end metric;
* the frozen **stub** — the asyncio + kernel floor (``server.server.stub_us``);
* the serving **shell** — a real ``CacheServer`` over a plain dict with
  admission wide open, replaying the traced twin's own frames.  Its cost
  above the stub, the parser and the encoder is ``server.server.self_us``.

``trace.layer_sum_gap`` then asks whether the parts, each measured on its
own — shell + admission + core + nzone + zzone + compression + durability
self times — add up to the request time measured whole on the plain twin.

Counts are exact: the op count is fixed, the server is seeded and runs on
a virtual clock, so two traced runs at one seed agree on every metric
whose kind is ``count`` in ``metrics.py``.
"""

from __future__ import annotations

import asyncio
import statistics
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional

import procs
import stub_server
from driver import Driver, connect, pingpong
from workloads import CRLF, END, Load

#: Fixed op count of the traced pass (and of the untraced overhead pass).
TRACED_OPS = 30_000
#: Spans of this many leading requests are dumped with the results.
DUMPED_REQUESTS = 2_000
_STUB_SECONDS = 1.2
#: The fixed ops run in this many slices, each on every in-process server:
#: short enough (~0.2 s a server) that one slice sees one kind of weather.
SLICES = 15
#: The layers under ``CacheServer`` whose self times the budget adds up.
CACHE_LAYERS = ("core", "nzone", "zzone", "compression", "durability")
#: Z-zone counters reported as they are (deltas over the traced ops).
ZZONE_COUNTERS = (
    "decompressions", "compressions", "filter_skips", "false_positives",
    "container_decodes_saved", "container_cache_hits", "staged_puts",
    "splits", "sweep_visits", "evicted_items",
)

_clock = time.perf_counter


def _import_program():
    """The program under test, from this checkout's ``src/`` only."""
    procs.require_source()
    if str(procs.SRC_DIR) not in sys.path:
        sys.path.insert(0, str(procs.SRC_DIR))


# -- spans ----------------------------------------------------------------------


class Tracer:
    """In-memory span log; ``wrap`` makes a timing proxy of any callable.

    Spans live in flat typed arrays (name id, start, end, parent index or
    -1, request number): appending to them allocates no tracked object,
    so recording 200k spans does not set the cyclic GC off inside the
    server being measured.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.names: List[str] = []
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.requests = array("i")
        self._stack: List[int] = []
        self.request = -1

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int) -> int:
        index = len(self.starts)
        stack = self._stack
        self.name_ids.append(name_id)
        self.parents.append(stack[-1] if stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(_clock())
        return index

    def begin(self, name: str) -> None:
        """Open a request's root span (called by the client)."""
        if self.enabled:
            self.request += 1
            self._open(self._name_id(name))

    def end(self) -> None:
        if self.enabled:
            ended = _clock()
            self.ends[self._stack.pop()] = ended

    def wrap(self, name: str, function: Callable) -> Callable:
        name_id = self._name_id(name)
        open_span, ends, stack = self._open, self.ends, self._stack

        def timed(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            index = open_span(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = _clock()
                stack.pop()

        return timed

    def spans(self):
        """Finished spans as ``(name, start, end, parent, request)`` tuples."""
        names = self.names
        return [
            (names[n], s, e, p, r)
            for n, s, e, p, r in zip(
                self.name_ids, self.starts, self.ends, self.parents, self.requests
            )
        ]


class Proxy:
    """Forwards everything to ``inner``; the named methods are spans."""

    def __init__(self, inner, tracer: Tracer, layer: str, methods) -> None:
        self.inner = inner
        for method in methods:
            setattr(self, method, tracer.wrap(f"{layer}.{method}", getattr(inner, method)))

    def __getattr__(self, name):
        return getattr(self.inner, name)


class ContainerProxy(Proxy):
    """A proxy for objects the program also probes with ``key in obj``."""

    def __init__(self, inner, tracer: Tracer, layer: str, methods) -> None:
        super().__init__(inner, tracer, layer, methods)
        self._contains = tracer.wrap(f"{layer}.contains", inner.__contains__)

    def __contains__(self, key) -> bool:
        return self._contains(key)


class NZoneProxy(ContainerProxy):
    """Also counts what each ``set`` evicted (the demotion feed)."""

    def __init__(self, inner, tracer: Tracer) -> None:
        super().__init__(inner, tracer, "nzone", ("get", "delete"))
        self.sets = 0
        self.evicted = 0
        timed_set = tracer.wrap("nzone.set", inner.set)

        def counted_set(key, value):
            evicted = timed_set(key, value)
            if tracer.enabled:
                self.sets += 1
                self.evicted += len(evicted)
            return evicted

        self.set = counted_set


class CompressorProxy(Proxy):
    """Timed codec that also meters the bytes it is handed and hands back."""

    def __init__(self, inner, tracer: Tracer) -> None:
        super().__init__(inner, tracer, "compression", ("decompress",))
        self.bytes_in = 0
        self.bytes_out = 0
        timed_compress = tracer.wrap("compression.compress", inner.compress)

        def metered_compress(data):
            compressed = timed_compress(data)
            if tracer.enabled:
                self.bytes_in += len(data)
                self.bytes_out += compressed.stored_size
            return compressed

        self.compress = metered_compress


# -- in-process servers ---------------------------------------------------------


class LoopThread:
    """An asyncio program on its own loop in a daemon thread."""

    def __init__(self, main: Callable[[Callable[[int], None]], "asyncio.Future"]) -> None:
        self._main = main
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self.port = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._task: Optional[asyncio.Task] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def runner() -> None:
            self._loop = asyncio.get_running_loop()
            self._task = asyncio.current_task()
            await self._main(self._announce)

        try:
            asyncio.run(runner())
        except asyncio.CancelledError:
            pass
        except BaseException as exc:  # surfaced to the caller by start()/stop()
            self._error = exc
        finally:
            self._ready.set()

    def _announce(self, port: int) -> None:
        self.port = port
        self._ready.set()

    def start(self) -> int:
        self._thread.start()
        if not self._ready.wait(procs.START_TIMEOUT) or self._error is not None:
            raise RuntimeError(f"in-process server failed to start: {self._error!r}")
        return self.port

    def call(self, function: Callable[[], None]) -> None:
        assert self._loop is not None
        self._loop.call_soon_threadsafe(function)

    def stop(self) -> None:
        if self._task is not None and self._thread.is_alive():
            self.call(self._task.cancel)
        self._thread.join(10.0)
        if self._thread.is_alive():
            raise RuntimeError("in-process server did not stop")


def shipped_serve_args(journal_dir: Optional[str]):
    """``cli serve``'s own parse of the ledger's command line: the one
    source of the shipped defaults for the in-process twin."""
    from repro.experiments.cli import build_parser

    return build_parser().parse_args(procs.serve_args(journal_dir))


def build_cache(args):
    """The cache exactly as ``run_serve_command`` builds it."""
    from repro.core.config import ZExpanderConfig
    from repro.core.sharded import ShardedZExpander

    return ShardedZExpander(
        ZExpanderConfig(total_capacity=args.capacity, seed=args.seed),
        num_shards=args.shards,
    )


def build_config(args):
    """The ServerConfig exactly as ``run_serve_command`` builds it."""
    from repro.server import ServerConfig

    return ServerConfig(
        host=args.host,
        port=args.port,
        read_timeout=args.read_timeout,
        drain_deadline=args.drain_deadline,
        snapshot_path=args.snapshot,
        audit_interval=args.audit_interval,
        clock_mode=args.clock,
        journal_dir=args.journal_dir,
        fsync=args.fsync,
        fsync_interval=args.fsync_interval,
        journal_segment_bytes=args.journal_segment_bytes,
        checkpoint_bytes=args.checkpoint_bytes,
        scrub_interval=args.scrub_interval,
    )


class CacheServerThread(LoopThread):
    """A ``CacheServer`` in a thread; ``assemble`` runs inside its loop."""

    def __init__(self, assemble: Callable[[], object]) -> None:
        self.server = None

        async def main(announce) -> None:
            self.server = assemble()
            await self.server.start()
            self.after_start()
            announce(self.server.port)
            await self.server.run()

        super().__init__(main)
        self.after_start: Callable[[], None] = lambda: None

    def stop(self) -> None:
        # A drain closes the journal cleanly (final checkpoint) first.
        if self.server is not None and self._thread.is_alive():
            self.call(self.server.begin_drain)
            self._thread.join(30.0)
        super().stop()


class DictCache:
    """The cache interface over a plain dict: what the shell serves from."""

    def __init__(self) -> None:
        self.data: Dict[bytes, bytes] = {}

    def get(self, key):
        return self.data.get(key)

    def get_many(self, keys):
        return [self.data.get(key) for key in keys]

    def set(self, key, value, ttl=None, flags=0) -> None:
        self.data[key] = value

    def delete(self, key) -> bool:
        return self.data.pop(key, None) is not None

    def __contains__(self, key) -> bool:
        return key in self.data

    @property
    def item_count(self) -> int:
        return len(self.data)


class OpenAdmission:
    """Admits everything at no cost (the shell's admission)."""

    def __init__(self, real) -> None:
        self.state, self.stats = real.state, real.stats
        self.bind_metrics = real.bind_metrics

    def admit(self, zzone_bound: bool, inflight: int) -> bool:
        return True


# -- the run --------------------------------------------------------------------


def _counter_totals(cache) -> Dict[str, int]:
    """Core + Z-zone counters summed over shards (one flat dict)."""
    totals: Dict[str, int] = {}
    for shard in cache.shards:
        for layer, stats in (("core", shard.stats), ("zzone", shard.zzone.stats)):
            for name, value in vars(stats).items():
                key = f"{layer}.{name}"
                totals[key] = totals.get(key, 0) + value
    return totals


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


class _Twin:
    """One in-process ``CacheServer`` over the shipped cache, with its own
    load and driver.  Given a tracer, timing proxies hang on every seam."""

    def __init__(self, name: str, seed: int, fleet: procs.Fleet, tracer: Optional[Tracer] = None) -> None:
        from repro.server import CacheServer
        from repro.server.admission import AdmissionController

        self.load = Load(name, seed)
        args = shipped_serve_args(
            fleet.journal_dir() if self.load.spec.journal else None
        )
        self.cache = build_cache(args)
        config = build_config(args)
        if tracer is None:
            self.thread = CacheServerThread(lambda: CacheServer(self.cache, config))
        else:
            self.nzones: List[NZoneProxy] = []
            self.codecs: List[CompressorProxy] = []
            for shard in self.cache.shards:
                self.codecs.append(CompressorProxy(shard.zzone.compressor, tracer))
                shard.zzone.compressor = self.codecs[-1]
                self.nzones.append(NZoneProxy(shard.nzone, tracer))
                shard.nzone = self.nzones[-1]
                shard.zzone = Proxy(
                    shard.zzone, tracer, "zzone",
                    ("get", "get_batched", "put", "delete", "maybe_contains"),
                )
            core = ContainerProxy(
                self.cache, tracer, "core",
                ("get", "set", "delete", "get_many", "routes_to_zzone"),
            )
            self.admission = Proxy(
                AdmissionController(config.admission), tracer, "admission", ("admit",)
            )
            self.thread = CacheServerThread(
                lambda: CacheServer(core, config, admission=self.admission)
            )

            def hang_durability_proxies() -> None:
                durability = self.thread.server.durability
                if durability is not None:
                    core.attach_journal(
                        Proxy(
                            durability.writer, tracer, "durability",
                            ("append_set", "append_delete"),
                        )
                    )
                    durability.checkpoint = tracer.wrap(
                        "durability.checkpoint", durability.checkpoint
                    )

            self.thread.after_start = hang_durability_proxies
        self.driver = Driver(self.load, self.thread.start(), tracer=tracer)

    def warm(self, warmup_ops: int) -> Dict[str, int]:
        """Populate + warm-up; returns the cache counters at that point."""
        self.driver.populate()
        self.driver.run(ops=warmup_ops)
        return _counter_totals(self.cache)

    def journal_stats(self) -> Dict[str, int]:
        durability = self.thread.server.durability
        return dict(vars(durability.stats)) if durability is not None else {}

    def close(self) -> None:
        self.driver.close()
        self.thread.stop()


def _replay(sock, frames: List[bytes]) -> float:
    """Mean round trip (us) of single-request ``frames`` on ``sock``."""
    send, recv = sock.sendall, sock.recv
    total = 0.0
    for frame in frames:
        terminator = END if frame.startswith(b"get ") else CRLF
        started = _clock()
        send(frame)
        data = recv(65536)
        while not data.endswith(terminator):
            data += recv(65536)
        total += _clock() - started
    return total / len(frames) * 1e6


def _time_parser(frames: List[bytes]) -> Dict[str, float]:
    """``RequestParser.feed/events`` on the run's own frames, by verb."""
    from repro.server.protocol import BadCommand, RequestParser

    out: Dict[str, float] = {"frames": 0, "bad_frames": 0}
    for verb in (b"get ", b"set "):
        mine = [frame for frame in frames if frame.startswith(verb)]
        parser = RequestParser()
        events = bad = 0
        started = _clock()
        for frame in mine:
            parser.feed(frame)
            for event in parser.events():
                events += 1
                if isinstance(event, BadCommand):
                    bad += 1
        elapsed = _clock() - started
        name = f"parse_{verb.decode().strip()}_us"
        out[name] = elapsed / len(mine) * 1e6 if mine else 0.0
        out["frames"] += events
        out["bad_frames"] += bad
    return out


def _time_encoder(load: Load, driver: Driver, frames: List[bytes]) -> float:
    """``encode_value`` (us per call) on the values this run's keys hold."""
    from repro.server.protocol import encode_value

    pairs = []
    for frame in frames:
        if frame.startswith(b"get ") and frame.count(CRLF) == 1:
            key_id = int(frame[8:-2])
            reply = driver.expected[key_id]
            if reply is not None:
                pairs.append(
                    (load.keys[key_id], reply[len(load.hit_heads[key_id]) : -7])
                )
    if not pairs:
        return 0.0
    started = _clock()
    for key, value in pairs:
        encode_value(key, value, flags=0)
    return (_clock() - started) / len(pairs) * 1e6


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def _observe(name: str, seed: int, fleet: procs.Fleet, ops: int, warmup_ops: int,
             tracer: Tracer) -> Dict[str, object]:
    """Run the four in-process servers through the fixed ops; return what
    was seen, before any arithmetic.

    The ops go in ``SLICES`` slices, each slice on all four servers back to
    back, so a noisy spell on the box hits the numbers being compared alike.
    """
    from repro.server import CacheServer
    from repro.server.admission import AdmissionController

    closers: List[Callable[[], None]] = []
    try:
        plain = _Twin(name, seed, fleet)
        closers.append(plain.close)
        warm_counters = plain.warm(warmup_ops)
        traced = _Twin(name, seed, fleet, tracer)
        closers.append(traced.close)
        # Same counters as the plain twin at the same point: the proxies
        # changed nothing the cache can see, and the server is deterministic.
        proxies_transparent = traced.warm(warmup_ops) == warm_counters
        load, driver = traced.load, traced.driver

        stub = LoopThread(stub_server.serve)
        closers.append(stub.stop)
        stub_sock = connect(stub.start())
        closers.append(stub_sock.close)
        shelf = DictCache()
        for key_id in load.populate_order:
            shelf.set(load.keys[key_id], load.value(key_id, 1))
        shell_config = build_config(shipped_serve_args(None))
        shell = CacheServerThread(
            lambda: CacheServer(
                shelf, shell_config,
                admission=OpenAdmission(AdmissionController(shell_config.admission)),
            )
        )
        closers.append(shell.stop)
        shell_sock = connect(shell.start())
        closers.append(shell_sock.close)

        before = _counter_totals(traced.cache)
        admitted_before = traced.admission.stats.as_dict()
        journal_before = traced.journal_stats()
        frames: List[bytes] = []
        driver.frame_log = frames
        singles = ops // 2 if load.spec.bursts else ops
        slices = []
        overheads = []
        for index in range(SLICES):
            count = singles * (index + 1) // SLICES - singles * index // SLICES
            plain_sample = plain.driver.run(ops=count)
            first_frame, first_span = len(frames), len(tracer.starts)
            tracer.enabled = True
            traced_sample = driver.run(ops=count)
            tracer.enabled = False
            shell_us = _replay(shell_sock, frames[first_frame:])
            pings = pingpong(stub_sock, _STUB_SECONDS / SLICES)
            slices.append({
                "plain": plain_sample, "traced": traced_sample, "shell_us": shell_us,
                "stub_us": sum(pings) / len(pings) * 1e6,
                "spans": range(first_span, len(tracer.starts)),
            })
            overheads.append(
                1.0 - (traced_sample.ops / traced_sample.elapsed)
                / (plain_sample.ops / plain_sample.elapsed)
            )
        burst_keys = 0
        if load.spec.bursts:
            _, plain_seconds = plain.driver.run_bursts(keys=ops - singles)
            tracer.enabled = True
            burst_keys, traced_seconds = driver.run_bursts(keys=ops - singles)
            tracer.enabled = False
            overheads.append(1.0 - plain_seconds / traced_seconds)
        driver.frame_log = None
        zzone_memory = [shard.zzone.memory_usage() for shard in traced.cache.shards]
        return {
            "frames": frames,
            "slices": slices,
            "overheads": overheads,
            "burst_keys": burst_keys,
            "counters": _delta(_counter_totals(traced.cache), before),
            "admitted": _delta(traced.admission.stats.as_dict(), admitted_before),
            "journal": _delta(traced.journal_stats(), journal_before),
            "zzone_stored": sum(memory["total"] for memory in zzone_memory),
            "zzone_uncompressed": sum(m["uncompressed_items"] for m in zzone_memory),
            "nzone_sets": sum(proxy.sets for proxy in traced.nzones),
            "nzone_evicted": sum(proxy.evicted for proxy in traced.nzones),
            "codec_bytes_in": sum(proxy.bytes_in for proxy in traced.codecs),
            "codec_bytes_out": sum(proxy.bytes_out for proxy in traced.codecs),
            "encode_value_us": _time_encoder(load, driver, frames),
            "attempted": plain.driver.attempted + driver.attempted,
            "failed": plain.driver.failed + driver.failed,
            "failures": (plain.driver.failures + driver.failures)[:8],
            "proxies_transparent": proxies_transparent,
            "warm_counters": warm_counters,
        }
    finally:
        for close in reversed(closers):
            close()


def _user_bytes(frame: bytes) -> int:
    """Key + value bytes a SET frame carries, key bytes of a DELETE frame."""
    header, _, rest = frame.partition(CRLF)
    key = header.split(b" ")[1]
    return len(key) + (len(rest) - len(CRLF) if frame.startswith(b"set ") else 0)


def traced_run(
    name: str,
    seed: int,
    fleet: procs.Fleet,
    ops: int = TRACED_OPS,
    warmup_ops: int = 20_000,
) -> Dict[str, object]:
    """Every per-layer metric of one workload, its budget and sample spans.

    Ratios (``trace.*``) and the budget are medians over the slices.
    """
    _import_program()
    tracer = Tracer()
    seen = _observe(name, seed, fleet, ops, warmup_ops, tracer)
    frames, counters, burst_keys = seen["frames"], seen["counters"], seen["burst_keys"]
    parse = _time_parser(frames)

    # -- spans -> per-name totals and each span's children ----------------------
    spans = tracer.spans()
    child_time = [0.0] * len(spans)
    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    for span_name, start, end, parent, _request in spans:
        calls[span_name] = calls.get(span_name, 0) + 1
        total[span_name] = total.get(span_name, 0.0) + (end - start)
        if parent >= 0:
            child_time[parent] += end - start

    def mean_us(*span_names: str) -> float:
        count = sum(calls.get(n, 0) for n in span_names)
        return _ratio(sum(total.get(n, 0.0) for n in span_names), count) * 1e6

    def per_burst_key_us(span_name: str) -> float:
        return _ratio(total.get(span_name, 0.0), burst_keys) * 1e6

    # -- the budget: does shell + admission + cache explain the request? ----
    rows: Dict[str, List[float]] = {}
    gaps = []
    for piece in seen["slices"]:
        own: Dict[str, float] = {}
        for index in piece["spans"]:
            span_name, start, end, _parent, _request = spans[index]
            layer = span_name.split(".", 1)[0]
            own[layer] = own.get(layer, 0.0) + (end - start - child_time[index])
        requests = piece["traced"].ops
        row = {
            "request": piece["plain"].busy / piece["plain"].ops * 1e6,
            "request_traced": piece["traced"].busy / requests * 1e6,
            "stub": piece["stub_us"],
            "shell": piece["shell_us"],
        }
        for layer in ("admission",) + CACHE_LAYERS:
            row[layer] = own.get(layer, 0.0) / requests * 1e6
        explained = row["shell"] + row["admission"] + sum(row[l] for l in CACHE_LAYERS)
        gaps.append(abs(explained - row["request"]) / row["request"])
        for key, value in row.items():
            rows.setdefault(key, []).append(value)
    budget = {key: statistics.median(values) for key, values in rows.items()}
    single_frames = [frame for frame in frames if frame.count(b"get ") <= 1]
    get_frames = sum(1 for frame in single_frames if frame.startswith(b"get "))
    set_frames = sum(1 for frame in single_frames if frame.startswith(b"set "))
    hits = counters["core.get_hits_nzone"] + counters["core.get_hits_zzone"]
    budget["parse"] = (
        get_frames * parse["parse_get_us"] + set_frames * parse["parse_set_us"]
    ) / len(single_frames)
    budget["encode"] = hits / ops * seen["encode_value_us"]
    budget["server_self"] = (
        budget["shell"] - budget["stub"] - budget["parse"] - budget["encode"]
    )

    serviced = counters["core.serviced_nzone"] + counters["core.serviced_zzone"]
    journal = seen["journal"]
    journaled_user_bytes = sum(
        _user_bytes(frame) for frame in frames if not frame.startswith(b"get ")
    )
    metrics: Dict[str, float] = {
        "server.protocol.parse_get_us": parse["parse_get_us"],
        "server.protocol.parse_set_us": parse["parse_set_us"],
        "server.protocol.encode_value_us": seen["encode_value_us"],
        "server.protocol.frames": parse["frames"],
        "server.protocol.bad_frames": parse["bad_frames"],
        "server.admission.admit_us": mean_us("admission.admit"),
        "server.admission.admitted": seen["admitted"]["admitted"],
        "server.admission.shed": seen["admitted"]["shed_total"],
        "server.server.request_us": budget["request"],
        "server.server.stub_us": budget["stub"],
        "server.server.self_us": budget["server_self"],
        "server.server.burst_request_us_per_key": per_burst_key_us("request.burst"),
        "core.get_us": mean_us("core.get"),
        "core.set_us": mean_us("core.set"),
        "core.delete_us": mean_us("core.delete"),
        "core.get_many_us_per_key": per_burst_key_us("core.get_many"),
        "core.self_us": budget["core"],
        "core.hits_nzone": counters["core.get_hits_nzone"],
        "core.hits_zzone": counters["core.get_hits_zzone"],
        "core.misses": counters["core.get_misses"],
        "core.promotions": counters["core.promotions"],
        "core.demotions": counters["core.demotions"],
        "core.postponed_removals": counters["core.postponed_removals"],
        "core.nzone_service_share": _ratio(counters["core.serviced_nzone"], serviced),
        "nzone.get_us": mean_us("nzone.get"),
        "nzone.set_us": mean_us("nzone.set"),
        "nzone.delete_us": mean_us("nzone.delete"),
        "nzone.calls": sum(n for span_name, n in calls.items() if span_name.startswith("nzone.")),
        "nzone.evicted_per_set": _ratio(seen["nzone_evicted"], seen["nzone_sets"]),
        "zzone.get_us": mean_us("zzone.get"),
        "zzone.get_batched_us": mean_us("zzone.get_batched"),
        "zzone.put_us": mean_us("zzone.put"),
        "zzone.delete_us": mean_us("zzone.delete"),
        "zzone.maybe_contains_us": mean_us("zzone.maybe_contains"),
        "zzone.self_us": budget["zzone"],
        "zzone.hits_per_decompression": _ratio(
            counters["zzone.hits"], counters["zzone.decompressions"]
        ),
        "zzone.stored_bytes_per_user_byte": _ratio(
            seen["zzone_stored"], seen["zzone_uncompressed"]
        ),
        "compression.compress_us": mean_us("compression.compress"),
        "compression.decompress_us": mean_us("compression.decompress"),
        "compression.compress_calls": calls.get("compression.compress", 0),
        "compression.decompress_calls": calls.get("compression.decompress", 0),
        "compression.bytes_in": seen["codec_bytes_in"],
        "compression.bytes_out": seen["codec_bytes_out"],
        "durability.append_us": mean_us("durability.append_set", "durability.append_delete"),
        "durability.appends": journal.get("journal_appends", 0),
        "durability.journal_bytes_per_user_byte": _ratio(
            journal.get("journal_bytes", 0), journaled_user_bytes
        ),
        "durability.fsyncs": journal.get("fsyncs", 0),
        "durability.checkpoints": journal.get("checkpoints_written", 0),
        "durability.checkpoint_ms": mean_us("durability.checkpoint") / 1e3,
        "trace.overhead_share": statistics.median(seen["overheads"]),
        "trace.layer_sum_gap": statistics.median(gaps),
    }
    for counter in ZZONE_COUNTERS:
        metrics["zzone." + counter] = counters["zzone." + counter]

    return {
        "metrics": metrics,
        "budget_us": budget,
        "attempted": seen["attempted"],
        "failed": seen["failed"],
        "failures": seen["failures"],
        "proxies_transparent": seen["proxies_transparent"],
        "warm_counters": {
            key: seen["warm_counters"][key]
            for key in (
                "core.gets", "core.sets", "core.get_hits_nzone",
                "core.get_hits_zzone", "core.get_misses",
            )
        },
        "span_count": len(spans),
        "spans": [
            {"name": n, "start": s, "end": e, "parent": p, "request": r}
            for n, s, e, p, r in spans
            if r < DUMPED_REQUESTS
        ],
    }
