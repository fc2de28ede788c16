"""Memcached text protocol: incremental request parsing, reply encoding.

The parser is a push-style state machine: feed it raw socket bytes in
any fragmentation — one command split across many reads, many pipelined
commands in one read — and pop complete events.  An event is either a
:class:`Command` ready to execute or a :class:`BadCommand` carrying the
reply line the server should send (``ERROR`` / ``CLIENT_ERROR ...``) and
whether the connection is still usable afterwards.

Supported commands: ``get``/``gets`` (multi-key), ``set``, ``cas``,
``delete``, ``stats``, ``version``, ``quit``, plus the operator-only
``promote`` (replica -> primary failover).  Limits follow memcached:
keys are at most 250 bytes with no whitespace or control characters;
values are bounded by the server's configured item size and rejected
with ``CLIENT_ERROR`` (the declared data block is consumed first, so
the connection stays in sync).

``exptime`` follows memcached's integer semantics: ``0`` means no
expiry, values up to :data:`EXPTIME_ABSOLUTE_THRESHOLD` (30 days) are
relative TTLs in seconds, and larger values are absolute Unix
timestamps the *server* converts against its clock (the parser only
validates the integer — wall-clock conversion is an execution concern).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

CRLF = b"\r\n"

#: memcached's key limit.
MAX_KEY_BYTES = 250
#: Per-item value bound (memcached's classic -I default).
MAX_VALUE_BYTES = 1024 * 1024
#: Declared data blocks beyond this are not even consumed: the peer is
#: either broken or hostile, and the connection is dropped.
ABSOLUTE_MAX_VALUE_BYTES = 64 * 1024 * 1024
#: A command line (longest: multi-get) may not exceed this.
MAX_LINE_BYTES = 8192
#: Client flags are an unsigned 32-bit word, on the wire and on disk.
MAX_FLAGS = 0xFFFFFFFF

#: memcached's relative/absolute exptime pivot: values above 30 days
#: (in seconds) are absolute Unix timestamps, not TTLs.
EXPTIME_ABSOLUTE_THRESHOLD = 60 * 60 * 24 * 30

ERROR = b"ERROR" + CRLF
STORED = b"STORED" + CRLF
EXISTS = b"EXISTS" + CRLF
DELETED = b"DELETED" + CRLF
NOT_FOUND = b"NOT_FOUND" + CRLF
END = b"END" + CRLF


class Command(NamedTuple):
    """One parsed client command, ready to execute: an immutable record
    whose fields ``tuple.__new__`` sets in one step."""

    name: str
    keys: Tuple[bytes, ...] = ()
    value: bytes = b""
    flags: int = 0
    exptime: int = 0
    noreply: bool = False
    #: The compare-and-swap token on ``cas`` commands.
    cas_token: int = 0


@dataclass(frozen=True)
class BadCommand:
    """A protocol violation and the reply it earns.

    ``fatal`` means the stream can no longer be trusted (unterminated
    data block, oversized line) and the connection must be closed after
    the reply is sent.
    """

    reply: bytes
    reason: str
    fatal: bool = False


Event = Union[Command, BadCommand]


def client_error(message: str) -> bytes:
    return b"CLIENT_ERROR " + message.encode("ascii") + CRLF


def server_error(message: str) -> bytes:
    return b"SERVER_ERROR " + message.encode("ascii") + CRLF


def encode_value(
    key: bytes, value: bytes, flags: int = 0, cas: Optional[int] = None
) -> bytes:
    # One format: the value is copied into the frame once.
    if cas is None:
        return b"VALUE %s %d %d\r\n%s\r\n" % (key, flags, len(value), value)
    return b"VALUE %s %d %d %d\r\n%s\r\n" % (key, flags, len(value), cas, value)


def encode_stats(stats: Dict[str, object]) -> bytes:
    lines = [b"STAT %s %s" % (name.encode("ascii"), str(value).encode("ascii"))
             for name, value in stats.items()]
    return CRLF.join(lines) + CRLF + END if lines else END


#: The bytes a key may hold: printable ASCII less the space (33..126).
_KEY_BYTES = bytes(range(33, 127))


def valid_key(key: bytes) -> bool:
    """memcached key rules: 1..250 bytes, no whitespace or control bytes.

    Deleting every allowed byte leaves nothing exactly when each byte of
    ``key`` is one of them: one C pass, not a Python step per byte.
    """
    return 0 < len(key) <= MAX_KEY_BYTES and not key.translate(None, _KEY_BYTES)


@dataclass
class _PendingSet:
    """A storage command whose data block has not fully arrived yet."""

    name: str
    keys: Tuple[bytes, ...]
    flags: int
    exptime: int
    length: int
    noreply: bool
    cas_token: int
    #: When set, the data block is consumed and discarded and this reply
    #: is emitted instead of a Command (oversized value).
    reject: Optional[bytes]
    reject_reason: str


class RequestParser:
    """Incremental memcached-text parser.

    Usage::

        parser.feed(chunk)
        for event in parser.events():
            ...

    ``events()`` returns every event completable from the buffered bytes;
    a partial trailing command stays buffered for the next ``feed``.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._pending: Optional[_PendingSet] = None
        self._broken = False
        #: ``feed(data)`` appends ``data`` to the buffer: the buffer's own
        #: ``extend``, so feeding a read runs no Python frame.
        self.feed = self._buffer.extend

    @property
    def mid_command(self) -> bool:
        """True when a partially received command is buffered (used by
        the abrupt-disconnect accounting test and the drain logic)."""
        return self._pending is not None or bool(self._buffer)

    def events(self) -> List[Event]:
        """Parse every complete command buffered, in order; stop at (and
        include) a fatal one, after which the parser returns nothing."""
        events: List[Event] = []
        buffer = self._buffer
        while not self._broken:
            if self._pending is not None:
                event = self._finish_data_block()
            else:
                newline = buffer.find(b"\n")
                if newline < 0:
                    if len(buffer) <= MAX_LINE_BYTES:
                        break
                    event = BadCommand(
                        client_error("line too long"), "oversized line", fatal=True
                    )
                else:
                    end = newline
                    if newline and buffer[newline - 1] == 13:  # b"\r"
                        end -= 1
                    line = bytes(buffer[:end])
                    del buffer[: newline + 1]
                    event = self._parse_line(line)
            if event is None:  # a data block still arriving
                break
            events.append(event)
            if event.__class__ is BadCommand and event.fatal:
                self._broken = True
        return events

    # -- internals -------------------------------------------------------------

    def _finish_data_block(self) -> Optional[Event]:
        pending = self._pending
        assert pending is not None
        if pending.reject is not None:
            # A refused block is dropped as it arrives, never held: the
            # buffer stays within what an accepted value may occupy.
            dropped = min(pending.length, len(self._buffer))
            del self._buffer[:dropped]
            pending.length -= dropped
        needed = pending.length + len(CRLF)
        if len(self._buffer) < needed:
            return None
        value = bytes(self._buffer[: pending.length])
        trailer = bytes(self._buffer[pending.length : needed])
        del self._buffer[:needed]
        self._pending = None
        if trailer != CRLF:
            return BadCommand(
                client_error("bad data chunk"), "unterminated data block",
                fatal=True,
            )
        if pending.reject is not None:
            return BadCommand(pending.reject, pending.reject_reason)
        return Command(
            pending.name,
            pending.keys,
            value,
            pending.flags,
            pending.exptime,
            pending.noreply,
            pending.cas_token,
        )

    def _parse_line(self, line: bytes) -> Event:
        """One command line, its ``\\r\\n`` already cut: tokens are
        separated by runs of spaces (only spaces: a tab is part of a
        token), and the verb is case-blind."""
        parts = line.split(b" ")
        if b"" in parts:  # runs of spaces, or a space at either end
            parts = list(filter(None, parts))
        if not parts:
            return BadCommand(ERROR, "empty command line")
        name = parts[0].lower()
        verb = _VERBS.get(name)
        if verb is None:
            return BadCommand(ERROR, f"unknown command {name!r}")
        command, parse = verb
        return parse(self, command, parts[1:])

    def _parse_bare(self, name: str, args: List[bytes]) -> Event:
        """``stats``, ``version``, ``quit``: a verb and nothing else."""
        if args:
            return BadCommand(ERROR, f"{name} takes no arguments")
        return Command(name)

    def _parse_promote(self, name: str, args: List[bytes]) -> Event:
        """``promote [catch-up-dir]`` — the operator/harness failover hook.

        The optional argument is the dead primary's journal directory
        (reachable on local disk); the promoting replica replays it from
        its applied position so no acknowledged write is lost.  Paths
        with spaces cannot be expressed in the text protocol — the cli
        rejects them client-side.
        """
        if len(args) > 1:
            return BadCommand(
                client_error("bad command line format"),
                "promote takes at most one argument (catch-up dir)",
            )
        return Command(name, value=args[0] if args else b"")

    def _parse_get(self, name: str, args: List[bytes]) -> Event:
        if not args:
            return BadCommand(ERROR, "get with no keys")
        for key in args:
            if not valid_key(key):
                return BadCommand(client_error("bad key"), f"bad key {key!r}")
        return Command(name, tuple(args))

    def _parse_set(self, name: str, args: List[bytes]) -> Event:
        noreply = False
        if args and args[-1] == b"noreply":
            noreply = True
            args = args[:-1]
        expected = 5 if name == "cas" else 4
        if len(args) != expected:
            grammar = "<key> <flags> <exptime> <bytes>"
            if name == "cas":
                grammar += " <cas unique>"
            return BadCommand(
                client_error("bad command line format"),
                f"{name} expects {grammar}",
            )
        key = args[0]
        # memcached's fields are runs of decimal digits; ``int`` also
        # takes Python's digit separator (``1_0`` is 10), which no
        # memcached accepts.  None of the numeric fields may hold one.
        if b"_" in b"".join(args[1:]):
            return BadCommand(
                client_error("bad command line format"),
                f"digit separator in {name} parameters",
            )
        try:
            flags = int(args[1])
            # memcached exptime is an integer (a float like ``1.5`` is a
            # malformed command, not a short TTL).
            exptime = int(args[2])
            length = int(args[3])
            cas_token = int(args[4]) if name == "cas" else 0
        except ValueError:
            return BadCommand(
                client_error("bad command line format"),
                f"non-numeric {name} parameters",
            )
        if (
            length < 0
            or exptime < 0
            or cas_token < 0
            or not 0 <= flags <= MAX_FLAGS
        ):
            return BadCommand(
                client_error("bad command line format"),
                f"{name} parameters out of range",
            )
        if length > ABSOLUTE_MAX_VALUE_BYTES:
            return BadCommand(
                client_error("object too large for cache"),
                f"declared value of {length} B beyond the absolute bound",
                fatal=True,
            )
        reject = None
        reason = ""
        if not valid_key(key):
            reject = client_error("bad key")
            reason = f"bad key {key!r}"
        elif length > MAX_VALUE_BYTES:
            reject = client_error("object too large for cache")
            reason = f"value of {length} B exceeds {MAX_VALUE_BYTES} B"
        self._pending = _PendingSet(
            name, (key,), flags, exptime, length, noreply, cas_token, reject, reason
        )
        return self._finish_data_block()

    def _parse_delete(self, name: str, args: List[bytes]) -> Event:
        noreply = False
        if args and args[-1] == b"noreply":
            noreply = True
            args = args[:-1]
        if len(args) != 1:
            return BadCommand(
                client_error("bad command line format"), "delete expects one key"
            )
        if not valid_key(args[0]):
            return BadCommand(client_error("bad key"), f"bad key {args[0]!r}")
        return Command(name, (args[0],), noreply=noreply)


#: Lower-cased verb -> (the command's name, its argument parser): one
#: probe picks both.
_VERBS = {
    b"get": ("get", RequestParser._parse_get),
    b"gets": ("gets", RequestParser._parse_get),
    b"set": ("set", RequestParser._parse_set),
    b"cas": ("cas", RequestParser._parse_set),
    b"delete": ("delete", RequestParser._parse_delete),
    b"stats": ("stats", RequestParser._parse_bare),
    b"version": ("version", RequestParser._parse_bare),
    b"quit": ("quit", RequestParser._parse_bare),
    b"promote": ("promote", RequestParser._parse_promote),
}
