"""Pooled asyncio memcached client with deadlines and jittered retry.

The client mirrors the server's robustness posture from the other side
of the wire:

* **Connection pooling** — up to ``pool_size`` persistent connections,
  created lazily, recycled on success, discarded on any error (a broken
  connection must never be returned to the pool).
* **Per-request deadlines** — the whole request (acquire, write, read)
  runs under one ``asyncio.wait_for``; a missed deadline surfaces as
  :class:`~repro.common.errors.RequestTimeoutError`.
* **Retry with exponential backoff + full jitter** — transient failures
  (connection reset, timeout, ``SERVER_ERROR overloaded``/``draining``)
  are retried with ``sleep ~ U(0, min(cap, base * 2**attempt))``, the
  AWS-style full-jitter schedule that avoids synchronized retry storms.
  The jitter RNG is injectable, so tests and chaos runs stay seeded.
  Connection *refused* is the exception: nothing is listening, so waiting
  cannot help — refused attempts retry immediately with no sleep and the
  call fails fast, letting a failover caller move to the next endpoint.
* **Failover** — :class:`FailoverMemcacheClient` fronts a primary plus
  read replicas: writes go to the primary, reads rotate across replicas
  and fall back endpoint-by-endpoint (lagging, draining, or unreachable
  replicas are skipped), and ``promote`` retargets writes after a
  replica is promoted.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import (
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.errors import (
    ConnectionDrainingError,
    ProtocolError,
    ReadOnlyReplicaError,
    ReplicaLaggingError,
    RequestTimeoutError,
    ServerOverloadedError,
    ServingError,
)
from repro.server.protocol import CRLF, MAX_LINE_BYTES, valid_key

#: Errors worth retrying: the next attempt may land on a healthy
#: connection (or a restarted server).
_RETRYABLE = (
    ConnectionError,
    ConnectionDrainingError,
    ServerOverloadedError,
    asyncio.IncompleteReadError,
    EOFError,
    OSError,
)


@dataclass
class RetryPolicy:
    """Exponential backoff with full jitter."""

    max_attempts: int = 4
    backoff_base: float = 0.02
    backoff_cap: float = 0.5

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry ``attempt`` (1-based): full jitter."""
        ceiling = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        return rng.uniform(0.0, ceiling)


class Connection:
    """One raw protocol connection (no pooling, no retries)."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    def close(self) -> None:
        try:
            self.writer.close()
        except (OSError, RuntimeError):
            # Already reset by the peer, or its event loop is gone.
            pass

    async def send(self, request: bytes) -> None:
        """Put one whole request on the wire.  Every operation sends
        through here, so a subclass that breaks the bytes mid-request
        (the loadgen's wire faults) breaks them for every command."""
        self.writer.write(request)
        await self.writer.drain()

    async def read_line(self) -> bytes:
        line = await self.reader.readline()
        if not line:
            raise EOFError("connection closed by server")
        return line

    async def read_exactly(self, count: int) -> bytes:
        return await self.reader.readexactly(count)

    async def read_values(self):
        """Yield (key, flags, value, cas) from VALUE blocks until END."""
        while True:
            line = (await self.read_line()).rstrip()
            if line == b"END":
                return
            if not line.startswith(b"VALUE "):
                _raise_for_error_line(line + CRLF)
                raise ProtocolError(f"unexpected reply line {line!r}")
            parts = line.split(b" ")
            if len(parts) not in (4, 5):
                raise ProtocolError(f"malformed VALUE header {line!r}")
            key = parts[1]
            flags = int(parts[2])
            length = int(parts[3])
            cas = int(parts[4]) if len(parts) == 5 else 0
            value = await self.read_exactly(length)
            trailer = await self.read_exactly(2)
            if trailer != CRLF:
                raise ProtocolError("VALUE block missing CRLF trailer")
            yield key, flags, value, cas


def _raise_for_error_line(line: bytes) -> None:
    """Map a protocol error line to the exception taxonomy."""
    if line.startswith(b"SERVER_ERROR"):
        message = line[len(b"SERVER_ERROR ") :].strip().decode("ascii", "replace")
        if "overloaded" in message:
            raise ServerOverloadedError(message)
        if "draining" in message:
            raise ConnectionDrainingError(message)
        if "lagging" in message:
            raise ReplicaLaggingError(message)
        if "read-only" in message:
            raise ReadOnlyReplicaError(message)
        raise ServingError(message)
    if line.startswith(b"CLIENT_ERROR") or line.startswith(b"ERROR"):
        raise ProtocolError(line.strip().decode("ascii", "replace"))


def stat_value(text: str) -> Union[int, float, str]:
    """One ``stats`` value as a number — int, else float — else its text
    (``version``, ``state``, ``replication_role``).
    :meth:`MemcacheClient.stats` itself returns the text as it came."""
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return text


class MemcacheClient:
    """High-level pooled client; all public methods are coroutine-safe."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 11311,
        pool_size: int = 4,
        deadline: float = 2.0,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        connect: Callable[[str, int], Awaitable[Connection]] = Connection.open,
    ) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.host = host
        self.port = port
        self.deadline = deadline
        self.retry = retry if retry is not None else RetryPolicy()
        self._rng = rng if rng is not None else random.Random()
        #: How a pool slot dials: the seam through which the loadgen puts
        #: a fault-applying :class:`Connection` under every command.
        self._connect = connect
        # LIFO keeps hot connections hot; slots start as None = "create".
        self._pool: asyncio.LifoQueue = asyncio.LifoQueue(pool_size)
        for _ in range(pool_size):
            self._pool.put_nowait(None)

    # -- pool ------------------------------------------------------------------

    async def _acquire(self) -> Connection:
        slot = await self._pool.get()
        if slot is not None:
            return slot
        try:
            return await self._connect(self.host, self.port)
        except BaseException:
            self._pool.put_nowait(None)
            raise

    def _release(self, conn: Connection, healthy: bool) -> None:
        """Return a slot to the pool; must succeed on every code path.

        Pool-size conservation is the invariant: every ``_pool.get()``
        is matched by exactly one put, even when the caller was
        cancelled.  ``put_nowait`` can only find the queue full when
        :meth:`close` refilled it while this request was inflight; the
        extra connection is dropped rather than crashing in a ``finally``
        block (slot count stays at ``pool_size``).
        """
        slot = conn if healthy else None
        if not healthy:
            conn.close()
        try:
            self._pool.put_nowait(slot)
        except asyncio.QueueFull:
            if slot is not None:
                slot.close()

    async def close(self) -> None:
        """Close every pooled connection."""
        drained = []
        while not self._pool.empty():
            drained.append(self._pool.get_nowait())
        for slot in drained:
            if slot is not None:
                slot.close()
            self._pool.put_nowait(None)

    # -- request machinery -----------------------------------------------------

    async def _call(self, op):
        """Run ``op(conn)`` with pooling, a deadline, and jittered retry."""
        last_error: Optional[BaseException] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            backoff = True
            try:
                conn = await self._acquire()
            except ConnectionRefusedError as exc:
                # Nothing is listening on the endpoint.  Sleeping cannot
                # help: either the process is mid-restart (the immediate
                # next attempt may land) or it is dead and the caller
                # should fail over to another endpoint *now*.  Retry
                # without backoff so the whole call fails in microseconds
                # instead of stalling a failover behind jittered sleeps.
                last_error = exc
                backoff = False
            except _RETRYABLE as exc:
                last_error = exc
            else:
                # From this point the slot is held; the finally below is
                # the only return path.  A CancelledError out of wait_for
                # (caller cancellation, loop shutdown) is deliberately NOT
                # caught by the except arms — it falls through to the
                # finally, which returns the slot, then propagates.
                # Without that, every cancelled request would permanently
                # shrink the pool.
                healthy = False
                try:
                    result = await asyncio.wait_for(op(conn), self.deadline)
                    healthy = True
                    return result
                except (asyncio.TimeoutError, TimeoutError):
                    last_error = RequestTimeoutError(
                        f"request missed its {self.deadline}s deadline"
                    )
                except (ReplicaLaggingError, ReadOnlyReplicaError):
                    # The server answered deliberately; the connection is
                    # fine, but retrying the same endpoint cannot change
                    # the answer — surface it so a failover client can
                    # pick another endpoint.
                    healthy = True
                    raise
                except ServerOverloadedError as exc:
                    # The server answered; the connection itself is fine.
                    healthy = True
                    last_error = exc
                except ConnectionDrainingError as exc:
                    last_error = exc
                except _RETRYABLE as exc:
                    last_error = exc
                finally:
                    self._release(conn, healthy)
            if backoff and attempt < self.retry.max_attempts:
                await asyncio.sleep(self.retry.delay(attempt, self._rng))
        assert last_error is not None
        raise last_error

    # -- protocol operations ---------------------------------------------------

    async def get(self, key: bytes) -> Optional[bytes]:
        values = await self.get_many([key])
        return values.get(key)

    async def get_many(self, keys: Sequence[bytes]) -> Dict[bytes, bytes]:
        """Multi-key GET; absent keys are simply missing from the result.

        An empty key list answers locally (the wire has no zero-key
        ``get``).  Key lists too long for one request line are split so
        every ``get k1 k2 ...`` stays under the server's line cap — each
        chunk is one request (and one server-side batch), issued
        sequentially so a retry never replays an already-answered chunk.
        """
        if not keys:
            return {}
        out: Dict[bytes, bytes] = {}
        for request in self._get_requests(b"get", keys):

            async def op(
                conn: Connection, request: bytes = request
            ) -> Dict[bytes, bytes]:
                await conn.send(request)
                found: Dict[bytes, bytes] = {}
                async for key, _flags, value, _cas in conn.read_values():
                    found[key] = value
                return found

            out.update(await self._call(op))
        return out

    async def get_full(self, key: bytes) -> Optional[Tuple[bytes, int]]:
        """GET returning ``(value, flags)``; None on miss."""
        (request,) = self._get_requests(b"get", [key])

        async def op(conn: Connection):
            await conn.send(request)
            result = None
            async for got, flags, value, _cas in conn.read_values():
                if got == key:
                    result = (value, flags)
            return result

        return await self._call(op)

    async def gets(self, key: bytes) -> Optional[Tuple[bytes, int]]:
        """GET with a cas token; None on miss."""
        (request,) = self._get_requests(b"gets", [key])

        async def op(conn: Connection):
            await conn.send(request)
            result = None
            # Consume the whole reply (through END) so the connection
            # goes back to the pool with nothing buffered.
            async for got, _flags, value, cas in conn.read_values():
                if got == key:
                    result = (value, cas)
            return result

        return await self._call(op)

    async def set(
        self, key: bytes, value: bytes, ttl: float = 0.0, flags: int = 0
    ) -> bool:
        self._check_key(key)
        request = (
            b"set %s %d %d %d" % (key, flags, int(ttl), len(value))
            + CRLF
            + value
            + CRLF
        )

        async def op(conn: Connection) -> bool:
            await conn.send(request)
            line = await conn.read_line()
            if line.rstrip() == b"STORED":
                return True
            _raise_for_error_line(line)
            return False

        return await self._call(op)

    async def cas(
        self,
        key: bytes,
        value: bytes,
        token: int,
        ttl: float = 0.0,
        flags: int = 0,
    ) -> Optional[bool]:
        """Compare-and-swap against a ``gets`` token.

        True = stored; False = the item changed since the token was
        handed out (EXISTS); None = the key vanished (NOT_FOUND).
        """
        self._check_key(key)
        request = (
            b"cas %s %d %d %d %d" % (key, flags, int(ttl), len(value), token)
            + CRLF
            + value
            + CRLF
        )

        async def op(conn: Connection) -> Optional[bool]:
            await conn.send(request)
            line = (await conn.read_line()).rstrip()
            if line == b"STORED":
                return True
            if line == b"EXISTS":
                return False
            if line == b"NOT_FOUND":
                return None
            _raise_for_error_line(line + CRLF)
            raise ProtocolError(f"unexpected cas reply {line!r}")

        return await self._call(op)

    async def delete(self, key: bytes) -> bool:
        self._check_key(key)
        request = b"delete %s" % key + CRLF

        async def op(conn: Connection) -> bool:
            await conn.send(request)
            line = (await conn.read_line()).rstrip()
            if line == b"DELETED":
                return True
            if line == b"NOT_FOUND":
                return False
            _raise_for_error_line(line + CRLF)
            raise ProtocolError(f"unexpected delete reply {line!r}")

        return await self._call(op)

    async def stats(self) -> Dict[str, str]:
        async def op(conn: Connection) -> Dict[str, str]:
            await conn.send(b"stats" + CRLF)
            out: Dict[str, str] = {}
            while True:
                line = (await conn.read_line()).rstrip()
                if line == b"END":
                    return out
                if not line.startswith(b"STAT "):
                    _raise_for_error_line(line + CRLF)
                    raise ProtocolError(f"unexpected stats line {line!r}")
                _stat, name, value = line.split(b" ", 2)
                out[name.decode("ascii")] = value.decode("ascii")

        return await self._call(op)

    async def version(self) -> str:
        async def op(conn: Connection) -> str:
            await conn.send(b"version" + CRLF)
            line = (await conn.read_line()).rstrip()
            if line.startswith(b"VERSION "):
                return line[len(b"VERSION ") :].decode("ascii")
            _raise_for_error_line(line + CRLF)
            raise ProtocolError(f"unexpected version reply {line!r}")

        return await self._call(op)

    async def promote(self, catch_up: str = "") -> None:
        """Promote the replica this client points at to primary.

        ``catch_up`` optionally names the dead primary's journal
        directory (on disk reachable from the replica); the replica
        replays it from its applied position before taking writes, so
        under ``fsync=always`` no acknowledged write is lost.
        """
        if catch_up and any(c.isspace() for c in catch_up):
            raise ProtocolError(
                "catch-up dir may not contain whitespace (text protocol line)"
            )
        request = b"promote"
        if catch_up:
            request += b" " + catch_up.encode("utf-8")
        request += CRLF

        async def op(conn: Connection) -> None:
            await conn.send(request)
            line = (await conn.read_line()).rstrip()
            if line == b"PROMOTED":
                return None
            _raise_for_error_line(line + CRLF)
            raise ProtocolError(f"unexpected promote reply {line!r}")

        return await self._call(op)

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _check_key(key: bytes) -> None:
        if not valid_key(key):
            raise ProtocolError(f"invalid key {key!r}")

    def _get_requests(
        self, verb: bytes, keys: Sequence[bytes]
    ) -> List[bytes]:
        """Split a key list into request lines under the server line cap.

        The parser refuses any line over ``MAX_LINE_BYTES``, so a large
        multiget must travel as several smaller ones.  Greedy packing:
        each chunk holds as many keys as fit.  A single key always fits
        (``_check_key`` bounds key length well below the cap).
        """
        for key in keys:
            self._check_key(key)
        requests: List[bytes] = []
        chunk: List[bytes] = []
        # verb + separating space, plus trailing CRLF.
        length = len(verb) + 2
        for key in keys:
            cost = len(key) + 1
            if chunk and length + cost > MAX_LINE_BYTES:
                requests.append(verb + b" " + b" ".join(chunk) + CRLF)
                chunk = []
                length = len(verb) + 2
            chunk.append(key)
            length += cost
        requests.append(verb + b" " + b" ".join(chunk) + CRLF)
        return requests


#: Read-path conditions that mean "try the next endpoint", not "give up":
#: the endpoint is lagging, draining, overloaded, unreachable, or slow.
#: ProtocolError is deliberately absent — a malformed exchange is a bug,
#: and failing over would only mask it.
_FAILOVER_ERRORS = (
    ReplicaLaggingError,
    ReadOnlyReplicaError,
    ServerOverloadedError,
    ConnectionDrainingError,
    RequestTimeoutError,
    ConnectionError,
    OSError,
    EOFError,
    asyncio.IncompleteReadError,
)

Address = Tuple[str, int]


class FailoverMemcacheClient:
    """A primary plus read replicas behind one client interface.

    * **Writes** (``set``/``delete``) go to the primary only; replicas
      answer them with ``SERVER_ERROR read-only replica`` anyway.
    * **Reads** rotate across the replicas round-robin and fall back
      endpoint-by-endpoint — a replica that is lagging past its
      advertised bound, draining, or unreachable just means the next
      replica (and finally the primary) is tried.  Each endpoint attempt
      runs under the per-request deadline of its own pooled client, and
      connection-refused endpoints fail over in microseconds (see
      :meth:`MemcacheClient._call`).
    * **Promotion** — :meth:`promote` sends the ``promote`` command to a
      chosen replica and, on success, retargets writes at it.  The
      rotation is a plain counter and the replica order is the caller's,
      so a seeded harness sees identical routing every run.
    """

    def __init__(
        self,
        primary: Address,
        replicas: Sequence[Address] = (),
        *,
        pool_size: int = 2,
        deadline: float = 2.0,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        rng = rng if rng is not None else random.Random()

        def make(address: Address) -> MemcacheClient:
            host, port = address
            return MemcacheClient(
                host=host,
                port=port,
                pool_size=pool_size,
                deadline=deadline,
                retry=retry,
                rng=rng,
            )

        self._primary = make(primary)
        self._replicas: List[MemcacheClient] = [make(a) for a in replicas]
        self._rotation = 0
        #: Observability for tests and the chaos harness.
        self.reads_primary = 0
        self.reads_replica = 0
        self.read_failovers = 0
        self.promotions = 0

    # -- topology --------------------------------------------------------------

    @property
    def primary_address(self) -> Address:
        return (self._primary.host, self._primary.port)

    async def close(self) -> None:
        await self._primary.close()
        for client in self._replicas:
            await client.close()

    # -- reads -----------------------------------------------------------------

    def _read_order(self) -> List[MemcacheClient]:
        """Replicas from the rotation point, then the primary as backstop."""
        if not self._replicas:
            return [self._primary]
        start = self._rotation % len(self._replicas)
        self._rotation += 1
        ordered = self._replicas[start:] + self._replicas[:start]
        ordered.append(self._primary)
        return ordered

    async def get(self, key: bytes) -> Optional[bytes]:
        values = await self.get_many([key])
        return values.get(key)

    async def get_many(self, keys: Sequence[bytes]) -> Dict[bytes, bytes]:
        last_error: Optional[BaseException] = None
        for client in self._read_order():
            try:
                result = await client.get_many(keys)
            except _FAILOVER_ERRORS as exc:
                last_error = exc
                self.read_failovers += 1
                continue
            if client is self._primary:
                self.reads_primary += 1
            else:
                self.reads_replica += 1
            return result
        assert last_error is not None
        raise last_error

    # -- writes ----------------------------------------------------------------

    async def set(
        self, key: bytes, value: bytes, ttl: float = 0.0, flags: int = 0
    ) -> bool:
        return await self._primary.set(key, value, ttl, flags)

    async def cas(
        self,
        key: bytes,
        value: bytes,
        token: int,
        ttl: float = 0.0,
        flags: int = 0,
    ) -> Optional[bool]:
        return await self._primary.cas(key, value, token, ttl, flags)

    async def delete(self, key: bytes) -> bool:
        return await self._primary.delete(key)

    async def stats(self) -> Dict[str, str]:
        return await self._primary.stats()

    # -- failover --------------------------------------------------------------

    async def promote(self, replica_index: int = 0, catch_up: str = "") -> Address:
        """Promote one replica and retarget writes at it.

        Returns the new primary's address.  On failure the topology is
        unchanged (the replica stays in the read rotation) and the error
        propagates.  The old primary's client is closed, not promoted
        back — the caller decides whether the dead process ever returns,
        and if it does, it must come back as a replica.
        """
        if not 0 <= replica_index < len(self._replicas):
            raise ValueError(
                f"replica_index {replica_index} out of range "
                f"(have {len(self._replicas)} replicas)"
            )
        client = self._replicas.pop(replica_index)
        try:
            await client.promote(catch_up)
        except BaseException:
            self._replicas.insert(replica_index, client)
            raise
        retired = self._primary
        self._primary = client
        self.promotions += 1
        await retired.close()
        return self.primary_address
