"""The load generator: one blocking socket, closed loop, every reply checked.

One single-threaded client drives one server over one TCP_NODELAY
connection and sends the next request only when the previous reply is
complete (closed loop, one client: a slow server receives less load, and
the latencies it records contain no client-side queueing).  Request bytes
are pre-rendered (GET, DELETE) or rendered between requests (SET), never
inside the timed send→reply window.

The oracle is exact: ``expected[key]`` is the complete reply a GET hit
must produce for the last acknowledged version, byte for byte, or None
when the key was never written or was deleted.  A miss is legal (a cache
may evict) and is not a failure; anything that is neither the expected
hit nor a miss — stale bytes, wrong bytes, ``ERROR``/``SERVER_ERROR``, a
refusal — is counted in ``failed``.  A lost connection raises.
"""

from __future__ import annotations

import socket
import time
from typing import Dict, List, Optional, Tuple

from workloads import (
    BURST_KEYS,
    CRLF,
    DELETE,
    DELETED,
    END,
    GET,
    NOT_FOUND,
    POPULATE_DEPTH,
    STORED,
    Load,
)

_SOCKET_TIMEOUT = 30.0
_NEVER = float("inf")
_ERROR_PREFIXES = (b"SERVER_ERROR", b"CLIENT_ERROR", b"ERROR")


class Sample:
    """What one stretch of closed-loop driving observed."""

    __slots__ = ("ops", "elapsed", "busy", "get_lat", "set_lat", "delete_lat")

    def __init__(self) -> None:
        self.ops = 0
        self.elapsed = 0.0
        #: Sum of every request's send->reply time (all verbs, fills too).
        self.busy = 0.0
        self.get_lat: List[float] = []
        self.set_lat: List[float] = []
        self.delete_lat: List[float] = []


def connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=_SOCKET_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class Driver:
    """Generator + oracle + connection for one workload on one server."""

    def __init__(self, load: Load, port: int, tracer=None) -> None:
        self.load = load
        self.sock = connect(port)
        #: Root-span hook of the traced run (``begin(name)``/``end()``);
        #: None on every run that feeds an end-to-end metric.
        self.tracer = tracer
        keys = load.spec.keys
        self.expected: List[Optional[bytes]] = [None] * keys
        self.versions: List[int] = [0] * keys
        self._chunks = load.op_chunks()
        self._kinds: List[int] = []
        self._key_ids: List[int] = []
        self._pos = 0
        #: Ops consumed from the load's stream (fills are not stream ops).
        self.stream_pos = 0
        #: Stream positions of GET misses, for the exact miss-ratio window.
        self.miss_positions: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Frames sent / hit values seen, kept only when the traced run
        #: asks (it re-times the parser and encoder on them).
        self.frame_log: Optional[List[bytes]] = None

    def close(self) -> None:
        self.sock.close()

    # -- bookkeeping -------------------------------------------------------------

    def _fail(self, what: str, reply: bytes) -> None:
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(f"{what}: got {reply[:60]!r}")

    def _read_more(self, data: bytes, terminator: bytes) -> bytes:
        """Slow path: the reply did not arrive complete in one ``recv``."""
        recv = self.sock.recv
        while not data.endswith(terminator):
            # An error line answers any command and never ends in END.
            if data.startswith(_ERROR_PREFIXES) and data.endswith(CRLF):
                return data
            more = recv(65536)
            if not more:
                raise ConnectionError("server closed the connection")
            data += more
        return data

    # -- phases ------------------------------------------------------------------

    def populate(self) -> None:
        """Pipelined SETs of version 1, ``POPULATE_DEPTH`` frames per send."""
        load = self.load
        order = load.populate_order
        send, recv = self.sock.sendall, self.sock.recv
        for first in range(0, len(order), POPULATE_DEPTH):
            batch = order[first : first + POPULATE_DEPTH]
            values = [load.value(key_id, 1) for key_id in batch]
            send(b"".join(map(load.set_frame, batch, values)))
            want = STORED * len(batch)
            data = recv(65536)
            while data.count(CRLF) < len(batch):
                more = recv(65536)
                if not more:
                    raise ConnectionError("server closed during populate")
                data += more
            self.attempted += len(batch)
            if data != want:
                for line in data.split(CRLF)[: len(batch)]:
                    if line + CRLF != STORED:
                        self._fail("populate set", line)
            for key_id, value in zip(batch, values):
                self.versions[key_id] = 1
                self.expected[key_id] = load.hit_reply(key_id, value)

    def _set(self, key_id: int, lat_add) -> float:
        """One timed SET of the key's next version; returns its end time."""
        load = self.load
        version = self.versions[key_id] + 1
        value = load.value(key_id, version)
        frame = load.set_frame(key_id, value)
        if self.frame_log is not None:
            self.frame_log.append(frame)
        tracer = self.tracer
        if tracer is not None:
            tracer.begin("request.set")
        clock = time.perf_counter
        started = clock()
        self.sock.sendall(frame)
        data = self.sock.recv(65536)
        if data[-2:] != CRLF:
            data = self._read_more(data, CRLF)
        ended = clock()
        if tracer is not None:
            tracer.end()
        lat_add(ended - started)
        self.versions[key_id] = version
        if data == STORED:
            self.expected[key_id] = load.hit_reply(key_id, value)
        else:
            self._fail("set", data)
        return ended

    def run(
        self, seconds: Optional[float] = None, ops: Optional[int] = None
    ) -> Sample:
        """Drive stream ops at depth 1 until ``seconds`` pass or ``ops`` are
        done (demand fills count as ops).  Returns what was observed."""
        load = self.load
        fill = load.spec.demand_fill
        send, recv = self.sock.sendall, self.sock.recv
        clock = time.perf_counter
        expected = self.expected
        get_frames, delete_frames = load.get_frames, load.delete_frames
        tracer = self.tracer
        frame_log = self.frame_log
        sample = Sample()
        get_add, set_add = sample.get_lat.append, sample.set_lat.append
        delete_add = sample.delete_lat.append
        kinds, key_ids, pos = self._kinds, self._key_ids, self._pos
        stream_pos = self.stream_pos
        limit = ops if ops is not None else 1 << 62
        done = 0
        started = clock()
        deadline = started + seconds if seconds is not None else _NEVER
        ended = started
        while done < limit and ended < deadline:
            if pos == len(kinds):
                kinds, key_ids = next(self._chunks)
                pos = 0
            kind = kinds[pos]
            key_id = key_ids[pos]
            pos += 1
            stream_pos += 1
            done += 1
            if kind == GET:
                frame = get_frames[key_id]
                if frame_log is not None:
                    frame_log.append(frame)
                if tracer is not None:
                    tracer.begin("request.get")
                t0 = clock()
                send(frame)
                data = recv(65536)
                if data[-5:] != END:
                    data = self._read_more(data, END)
                ended = clock()
                if tracer is not None:
                    tracer.end()
                get_add(ended - t0)
                if data == expected[key_id]:
                    continue
                if data == END:
                    self.miss_positions.append(stream_pos - 1)
                    if fill:
                        ended = self._set(key_id, set_add)
                        done += 1
                else:
                    self._fail("get", data)
            elif kind == DELETE:
                frame = delete_frames[key_id]
                if frame_log is not None:
                    frame_log.append(frame)
                if tracer is not None:
                    tracer.begin("request.delete")
                t0 = clock()
                send(frame)
                data = recv(65536)
                if data[-2:] != CRLF:
                    data = self._read_more(data, CRLF)
                ended = clock()
                if tracer is not None:
                    tracer.end()
                delete_add(ended - t0)
                if data == DELETED or data == NOT_FOUND:
                    expected[key_id] = None
                else:
                    self._fail("delete", data)
            else:
                ended = self._set(key_id, set_add)
        self._kinds, self._key_ids, self._pos = kinds, key_ids, pos
        self.stream_pos = stream_pos
        self.attempted += done
        sample.ops = done
        sample.elapsed = ended - started
        sample.busy = sum(sample.get_lat) + sum(sample.set_lat) + sum(sample.delete_lat)
        return sample

    def run_bursts(
        self, seconds: Optional[float] = None, keys: Optional[int] = None
    ) -> Tuple[int, float]:
        """Bursts of ``BURST_KEYS`` single-key GETs written in one ``send``
        (the server coalesces each into one ``get_many``).  Returns
        ``(keys served, elapsed)``."""
        load = self.load
        send, recv = self.sock.sendall, self.sock.recv
        clock = time.perf_counter
        expected = self.expected
        get_frames = load.get_frames
        tracer = self.tracer
        limit = keys if keys is not None else 1 << 62
        done = 0
        started = clock()
        deadline = started + seconds if seconds is not None else _NEVER
        ended = started
        while done < limit and ended < deadline:
            ids = self._next_keys(min(BURST_KEYS, limit - done))
            frame = b"".join([get_frames[key_id] for key_id in ids])
            if self.frame_log is not None:
                self.frame_log.append(frame)
            if tracer is not None:
                tracer.begin("request.burst")
            send(frame)
            data = recv(65536)
            while data.count(END) < len(ids):
                more = recv(65536)
                if not more:
                    raise ConnectionError("server closed during a burst")
                data += more
            ended = clock()
            if tracer is not None:
                tracer.end()
            done += len(ids)
            self._check_burst(ids, data, self.stream_pos - len(ids))
        self.attempted += done
        return done, ended - started

    def _next_keys(self, count: int) -> List[int]:
        """The next ``count`` stream ops' keys (burst workloads are all-GET)."""
        ids: List[int] = []
        while len(ids) < count:
            if self._pos == len(self._kinds):
                self._kinds, self._key_ids = next(self._chunks)
                self._pos = 0
            take = min(count - len(ids), len(self._kinds) - self._pos)
            ids.extend(self._key_ids[self._pos : self._pos + take])
            self._pos += take
        self.stream_pos += count
        return ids

    def _check_burst(self, ids: List[int], data: bytes, first_pos: int) -> None:
        """Verify a burst reply key by key, recording where it missed."""
        expected = self.expected
        wants = [expected[key_id] for key_id in ids]
        if None not in wants and data == b"".join(wants):
            return
        offset = 0
        for index, want in enumerate(wants):
            if want is not None and data.startswith(want, offset):
                offset += len(want)
            elif data.startswith(END, offset):
                offset += len(END)
                self.miss_positions.append(first_pos + index)
            else:
                # Framing is lost from here on: every remaining key failed.
                for _ in ids[index:]:
                    self._fail("burst get", data[offset:])
                return
        if offset != len(data):
            self._fail("burst trailing bytes", data[offset:])

    def check_one_get(self, key_id: int) -> None:
        """One GET of ``key_id`` through the very checks ``run`` applies
        (the self-test's way in); the stream is left where it was."""
        saved = self._kinds, self._key_ids, self._pos, self.stream_pos
        self._kinds, self._key_ids, self._pos = [GET], [key_id], 0
        try:
            self.run(ops=1)
        finally:
            self._kinds, self._key_ids, self._pos, self.stream_pos = saved

    # -- server-side counters ---------------------------------------------------

    def stats(self) -> Dict[str, str]:
        """The server's ``stats`` reply as a dict (an unmeasured request)."""
        self.sock.sendall(b"stats\r\n")
        data = self._read_more(self.sock.recv(65536), END)
        out: Dict[str, str] = {}
        for line in data.split(CRLF):
            parts = line.split(b" ", 2)
            if len(parts) == 3 and parts[0] == b"STAT":
                out[parts[1].decode()] = parts[2].decode()
        return out


def pingpong(sock: socket.socket, seconds: float) -> List[float]:
    """Closed-loop RTTs of one fixed GET frame against the stub server."""
    frame = b"get key:00000000\r\n"
    send, recv = sock.sendall, sock.recv
    clock = time.perf_counter
    samples: List[float] = []
    add = samples.append
    deadline = clock() + seconds
    ended = 0.0
    while ended < deadline:
        started = clock()
        send(frame)
        data = recv(65536)
        ended = clock()
        if data != END:
            raise RuntimeError(f"stub answered {data!r}")
        add(ended - started)
    return samples
