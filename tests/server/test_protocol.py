"""Protocol edge cases: fragmentation, pipelining, hostile input."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.server import protocol
from repro.server.protocol import (
    ABSOLUTE_MAX_VALUE_BYTES,
    MAX_FLAGS,
    MAX_KEY_BYTES,
    MAX_LINE_BYTES,
    MAX_VALUE_BYTES,
    BadCommand,
    Command,
    RequestParser,
    encode_stats,
    encode_value,
    valid_key,
)


def events_of(parser):
    return list(parser.events())


def feed_all(data, chunk=None):
    """Parse ``data``, optionally in ``chunk``-byte fragments."""
    parser = RequestParser()
    events = []
    if chunk is None:
        parser.feed(data)
        events.extend(parser.events())
    else:
        for start in range(0, len(data), chunk):
            parser.feed(data[start : start + chunk])
            events.extend(parser.events())
    return events


class TestBasicParsing:
    def test_get_single_key(self):
        (event,) = feed_all(b"get alpha\r\n")
        assert event == Command(name="get", keys=(b"alpha",))

    def test_get_multi_key(self):
        (event,) = feed_all(b"gets a b c\r\n")
        assert event.name == "gets"
        assert event.keys == (b"a", b"b", b"c")

    def test_set_with_data_block(self):
        (event,) = feed_all(b"set k 7 0 5\r\nhello\r\n")
        assert event.name == "set"
        assert event.keys == (b"k",)
        assert event.value == b"hello"
        assert event.flags == 7

    def test_set_noreply(self):
        (event,) = feed_all(b"set k 0 0 2 noreply\r\nhi\r\n")
        assert event.noreply

    def test_delete(self):
        (event,) = feed_all(b"delete gone\r\n")
        assert event == Command(name="delete", keys=(b"gone",))

    def test_bare_lf_line_endings_tolerated(self):
        (event,) = feed_all(b"get alpha\n")
        assert event.keys == (b"alpha",)

    def test_value_bytes_are_binary_safe(self):
        payload = bytes(range(256)) * 2
        data = b"set bin 0 0 %d\r\n" % len(payload) + payload + b"\r\n"
        (event,) = feed_all(data)
        assert event.value == payload

    def test_admin_commands(self):
        events = feed_all(b"stats\r\nversion\r\nquit\r\n")
        assert [event.name for event in events] == ["stats", "version", "quit"]


class TestPipelining:
    """Many commands in one TCP segment must all come out, in order."""

    def test_pipelined_commands_single_segment(self):
        data = (
            b"set a 0 0 3\r\nAAA\r\n"
            b"get a\r\n"
            b"set b 0 0 3\r\nBBB\r\n"
            b"get a b\r\n"
            b"delete a\r\n"
        )
        events = feed_all(data)
        assert [event.name for event in events] == [
            "set",
            "get",
            "set",
            "get",
            "delete",
        ]
        assert events[0].value == b"AAA"
        assert events[3].keys == (b"a", b"b")

    def test_pipelined_set_value_containing_crlf(self):
        # A data block may contain b"\r\nget x\r\n" — it's payload, not
        # commands.
        payload = b"\r\nget x\r\n"
        data = b"set k 0 0 %d\r\n" % len(payload) + payload + b"\r\nget k\r\n"
        events = feed_all(data)
        assert [event.name for event in events] == ["set", "get"]
        assert events[0].value == payload


class TestPartialFrames:
    """Commands split across arbitrary read boundaries."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_byte_at_a_time(self, chunk):
        data = b"set key 0 0 6\r\nabcdef\r\nget key other\r\n"
        events = feed_all(data, chunk=chunk)
        assert [event.name for event in events] == ["set", "get"]
        assert events[0].value == b"abcdef"
        assert events[1].keys == (b"key", b"other")

    def test_split_inside_data_block(self):
        parser = RequestParser()
        parser.feed(b"set k 0 0 10\r\nabc")
        assert events_of(parser) == []
        assert parser.mid_command
        parser.feed(b"defghij")
        assert events_of(parser) == []
        parser.feed(b"\r\n")
        (event,) = events_of(parser)
        assert event.value == b"abcdefghij"
        assert not parser.mid_command

    def test_split_inside_command_line(self):
        parser = RequestParser()
        parser.feed(b"get al")
        assert events_of(parser) == []
        assert parser.mid_command
        parser.feed(b"pha\r\n")
        (event,) = events_of(parser)
        assert event.keys == (b"alpha",)


class TestRejection:
    def test_unknown_command(self):
        (event,) = feed_all(b"frobnicate\r\n")
        assert isinstance(event, BadCommand)
        assert event.reply == b"ERROR\r\n"
        assert not event.fatal

    def test_oversized_key_rejected(self):
        key = b"k" * (MAX_KEY_BYTES + 1)
        (event,) = feed_all(b"get " + key + b"\r\n")
        assert isinstance(event, BadCommand)
        assert event.reply.startswith(b"CLIENT_ERROR")

    def test_key_with_whitespace_rejected(self):
        (event,) = feed_all(b"delete bad\tkey\r\n")
        assert isinstance(event, BadCommand)

    def test_oversized_value_rejected_and_stream_stays_in_sync(self):
        parser = RequestParser()
        length = MAX_VALUE_BYTES + 1
        payload = b"x" * length
        parser.feed(b"set big 0 0 %d\r\n%s\r\nget ok\r\n" % (length, payload))
        events = events_of(parser)
        # The declared block is consumed, CLIENT_ERROR emitted, and the
        # next pipelined command still parses.
        assert isinstance(events[0], BadCommand)
        assert b"too large" in events[0].reply
        assert not events[0].fatal
        assert events[1] == Command(name="get", keys=(b"ok",))

    def test_oversized_set_key_consumes_block_too(self):
        parser = RequestParser()
        key = b"k" * (MAX_KEY_BYTES + 1)
        parser.feed(b"set " + key + b" 0 0 3\r\nabc\r\nget ok\r\n")
        events = events_of(parser)
        assert isinstance(events[0], BadCommand)
        assert events[1].name == "get"

    def test_absurd_declared_length_is_fatal(self):
        (event,) = feed_all(b"set k 0 0 999999999999\r\n")
        assert isinstance(event, BadCommand)
        assert event.fatal

    def test_unterminated_data_block_is_fatal(self):
        (event,) = feed_all(b"set k 0 0 3\r\nabcdef more garbage\r\n")
        assert isinstance(event, BadCommand)
        assert event.fatal

    def test_oversized_line_is_fatal(self):
        parser = RequestParser()
        parser.feed(b"get " + b"k " * (MAX_LINE_BYTES // 2 + 100))
        (event,) = events_of(parser)
        assert isinstance(event, BadCommand)
        assert event.fatal

    def test_broken_parser_emits_nothing_more(self):
        parser = RequestParser()
        parser.feed(b"set k 0 0 3\r\nabcd-garbage\r\nget ok\r\n")
        events = events_of(parser)
        assert len(events) == 1 and events[0].fatal
        parser.feed(b"get later\r\n")
        assert events_of(parser) == []

    def test_bad_set_parameters(self):
        for line in (
            b"set k 0 0\r\n",  # missing length
            b"set k x 0 3\r\n",  # non-numeric flags
            b"set k 0 0 -3\r\n",  # negative length
        ):
            (event,) = feed_all(line)
            assert isinstance(event, BadCommand), line


    def test_flags_beyond_32_bits_rejected(self):
        """Flags are a 4-byte word in a journal record and an image; a
        wider one used to parse, then raise ``struct.error`` out of the
        journal append and take the connection with it."""
        events = feed_all(
            b"set k %d 0 1\r\nx\r\nset k %d 0 1\r\ny\r\n"
            % (MAX_FLAGS + 1, MAX_FLAGS)
        )
        assert isinstance(events[0], BadCommand) and not events[0].fatal
        assert events[-1] == Command(
            "set", keys=(b"k",), value=b"y", flags=MAX_FLAGS
        )


class TestCasGrammar:
    def test_cas_with_token(self):
        (event,) = feed_all(b"cas k 7 0 5 42\r\nhello\r\n")
        assert event.name == "cas"
        assert event.keys == (b"k",)
        assert event.value == b"hello"
        assert event.flags == 7
        assert event.cas_token == 42

    def test_cas_noreply(self):
        (event,) = feed_all(b"cas k 0 0 2 9 noreply\r\nhi\r\n")
        assert event.name == "cas"
        assert event.noreply
        assert event.cas_token == 9

    def test_cas_missing_token_rejected(self):
        (event,) = feed_all(b"cas k 0 0 5\r\n")
        assert isinstance(event, BadCommand)

    def test_cas_negative_token_rejected(self):
        (event,) = feed_all(b"cas k 0 0 5 -1\r\n")
        assert isinstance(event, BadCommand)

    def test_cas_non_numeric_token_rejected(self):
        (event,) = feed_all(b"cas k 0 0 5 abc\r\n")
        assert isinstance(event, BadCommand)

    def test_set_rejects_trailing_token(self):
        # Five numeric args belong to cas only; set takes four.
        (event,) = feed_all(b"set k 0 0 5 42\r\n")
        assert isinstance(event, BadCommand)

    def test_cas_pipelined_with_set(self):
        events = feed_all(b"set a 0 0 1\r\nA\r\ncas a 0 0 1 3\r\nB\r\n")
        assert [event.name for event in events] == ["set", "cas"]
        assert events[1].cas_token == 3


class TestExptimeGrammar:
    def test_exptime_parsed_as_int(self):
        (event,) = feed_all(b"set k 0 300 2\r\nhi\r\n")
        assert event.exptime == 300
        assert isinstance(event.exptime, int)

    def test_exptime_zero_means_no_expiry(self):
        (event,) = feed_all(b"set k 0 0 2\r\nhi\r\n")
        assert event.exptime == 0

    def test_absolute_exptime_carried_verbatim(self):
        # Above the 30-day threshold the value is an absolute Unix
        # timestamp; conversion happens at execution, not parse.
        stamp = 1900000000
        (event,) = feed_all(b"set k 0 %d 2\r\nhi\r\n" % stamp)
        assert event.exptime == stamp

    def test_float_exptime_rejected(self):
        (event,) = feed_all(b"set k 0 1.5 2\r\n")
        assert isinstance(event, BadCommand)

    def test_negative_exptime_rejected(self):
        (event,) = feed_all(b"set k 0 -1 2\r\n")
        assert isinstance(event, BadCommand)

    def test_threshold_boundary_is_relative(self):
        from repro.server.protocol import EXPTIME_ABSOLUTE_THRESHOLD

        (event,) = feed_all(
            b"set k 0 %d 2\r\nhi\r\n" % EXPTIME_ABSOLUTE_THRESHOLD
        )
        assert event.exptime == EXPTIME_ABSOLUTE_THRESHOLD


class TestEncodersAndKeys:
    def test_encode_value_with_cas(self):
        assert (
            encode_value(b"k", b"abc", flags=2, cas=9)
            == b"VALUE k 2 3 9\r\nabc\r\n"
        )

    def test_encode_stats_ends_with_end(self):
        payload = encode_stats({"a": 1, "b": "x"})
        assert payload.startswith(b"STAT a 1\r\n")
        assert payload.endswith(b"END\r\n")

    def test_valid_key_rules(self):
        assert valid_key(b"ok-key:1")
        assert valid_key(b"k" * MAX_KEY_BYTES)
        assert not valid_key(b"")
        assert not valid_key(b"k" * (MAX_KEY_BYTES + 1))
        assert not valid_key(b"has space")
        assert not valid_key(b"ctrl\x01char")
        assert not valid_key("unicodeé".encode())

    def test_default_limit_sane(self):
        assert MAX_VALUE_BYTES == 1024 * 1024


class TestDigitSeparator:
    """Python's ``int`` reads ``1_0`` as 10; memcached's ``safe_strtoul``
    refuses it, and so does the parser, in every numeric field."""

    @pytest.mark.parametrize(
        "frame",
        [
            b"set k 1_0 0 1\r\nx\r\n",  # flags
            b"set k 0 1_0 1\r\nx\r\n",  # exptime
            b"set k 0 0 1_0\r\n0123456789\r\n",  # bytes
            b"cas k 0 0 1 1_0\r\nx\r\n",  # cas unique
        ],
        ids=["flags", "exptime", "bytes", "cas"],
    )
    def test_refused_with_bad_command_line_format(self, frame):
        refusal, *rest = feed_all(frame)
        assert isinstance(refusal, BadCommand) and not refusal.fatal
        assert refusal.reply == b"CLIENT_ERROR bad command line format\r\n"
        # Nothing was stored: the data line is read as a command line.
        assert not any(isinstance(event, Command) for event in rest)

    def test_an_underscore_in_the_key_is_still_a_key(self):
        (event,) = feed_all(b"set a_b 0 0 1\r\nx\r\n")
        assert event == Command(name="set", keys=(b"a_b",), value=b"x")


def old_key_rule(key: bytes) -> bool:
    """The key rule as it was first written, byte by byte."""
    if not key or len(key) > MAX_KEY_BYTES:
        return False
    return all(33 <= byte <= 126 for byte in key)


class TestRewrittenChecks:
    """The parser's one-pass checks accept exactly what the step-by-step
    ones did."""

    @pytest.mark.parametrize("length", [1, MAX_KEY_BYTES, MAX_KEY_BYTES + 1])
    def test_valid_key_matches_the_old_rule_on_every_byte(self, length):
        for byte in range(256):
            uniform = bytes([byte]) * length
            last = b"k" * (length - 1) + bytes([byte])
            for key in (uniform, last):
                expected = 33 <= byte <= 126 and length <= MAX_KEY_BYTES
                assert valid_key(key) is expected, key
                assert old_key_rule(key) is expected, key

    def test_valid_key_refuses_the_empty_key(self):
        assert valid_key(b"") is False

    @pytest.mark.parametrize(
        "frame, expected",
        [
            (b"get  a   b\r\n", [Command(name="get", keys=(b"a", b"b"))]),
            (b"get a \r\n", [Command(name="get", keys=(b"a",))]),
            (
                b"get a\tb\r\n",
                [BadCommand(b"CLIENT_ERROR bad key\r\n", "bad key b'a\\tb'")],
            ),
            (b"GET a\r\n", [Command(name="get", keys=(b"a",))]),
            (
                b"set  k  0 0 1 \r\nx\r\n",
                [Command(name="set", keys=(b"k",), value=b"x")],
            ),
            (b"  \r\n", [BadCommand(b"ERROR\r\n", "empty command line")]),
        ],
        ids=["double-spaces", "trailing-space", "tab-in-token", "upper-case",
             "set-spacing", "blank"],
    )
    def test_line_splitting(self, frame, expected):
        assert feed_all(frame) == expected


# -- structure-aware fuzz ---------------------------------------------------------
#
# The standard tests/durability/test_properties.py sets for the journal,
# for the one other decoder that reads bytes from outside: a valid
# pipeline with a cut, a flipped byte or an oversized length never
# raises out of feed()/events(), never buffers past one accepted value
# or one line, and never disturbs the commands before the damage.

FUZZ_MAX_VALUE = 96
#: What the parser may hold between two reads: a command line still
#: missing its newline, or an accepted data block still missing bytes.
BUFFER_BOUND = max(MAX_LINE_BYTES, FUZZ_MAX_VALUE + len(b"\r\n"))

fuzz_keys = st.binary(min_size=1, max_size=12).map(
    lambda raw: bytes(33 + byte % 94 for byte in raw)
)
fuzz_values = st.binary(max_size=FUZZ_MAX_VALUE)
small = st.integers(min_value=0, max_value=9999)
tails = st.sampled_from((b"", b" noreply"))


def _storage(verb):
    def build(key, flags, exptime, value, token, tail):
        cas = b" %d" % token if verb == b"cas" else b""
        return b"%s %s %d %d %d%s%s\r\n%s\r\n" % (
            verb, key, flags, exptime, len(value), cas, tail, value
        )

    return st.builds(build, fuzz_keys, small, small, fuzz_values, small, tails)


fuzz_frames = st.one_of(
    st.builds(
        lambda verb, keys: verb + b" " + b" ".join(keys) + b"\r\n",
        st.sampled_from((b"get", b"gets")),
        st.lists(fuzz_keys, min_size=1, max_size=4),
    ),
    _storage(b"set"),
    _storage(b"cas"),
    st.builds(lambda key, tail: b"delete %s%s\r\n" % (key, tail), fuzz_keys, tails),
    st.sampled_from((b"stats\r\n", b"version\r\n")),
)
pipelines = st.lists(fuzz_frames, min_size=1, max_size=8)
chunkings = st.sampled_from((1, 7, 64, 1 << 16))


def drive(data, chunk):
    """Feed ``data`` in ``chunk``-byte reads the way a connection does —
    drain the events after every read, stop at a fatal one — checking
    the buffer bound after each drain.  Returns (events, parser)."""
    parser = RequestParser()
    events = []
    with mock.patch.object(protocol, "MAX_VALUE_BYTES", FUZZ_MAX_VALUE):
        for start in range(0, len(data), chunk):
            parser.feed(data[start : start + chunk])
            events.extend(parser.events())
            if events and getattr(events[-1], "fatal", False):
                assert list(parser.events()) == []
                break
            assert len(parser._buffer) <= BUFFER_BOUND
    return events, parser


def reference(frames):
    """The one Command each valid frame parses to, frame by frame."""
    expected = []
    for frame in frames:
        (event,), parser = drive(frame, len(frame))
        assert isinstance(event, Command) and not parser.mid_command
        expected.append(event)
    return expected


class TestStructureAwareFuzz:
    @settings(max_examples=60, deadline=None)
    @given(frames=pipelines, chunk=chunkings, data=st.data())
    def test_a_cut_yields_the_commands_before_it(self, frames, chunk, data):
        expected = reference(frames)
        whole = b"".join(frames)
        cut = data.draw(st.integers(0, len(whole)), label="cut")
        events, parser = drive(whole[:cut], chunk)
        ends = [sum(map(len, frames[: i + 1])) for i in range(len(frames))]
        complete = sum(1 for end in ends if end <= cut)
        assert events == expected[:complete]
        assert parser.mid_command == (cut not in [0] + ends)

    @settings(max_examples=200, deadline=None)
    @given(frames=pipelines, chunk=chunkings, data=st.data())
    def test_a_flipped_byte_spares_the_commands_before_it(
        self, frames, chunk, data
    ):
        expected = reference(frames)
        whole = bytearray(b"".join(frames))
        position = data.draw(st.integers(0, len(whole) - 1), label="byte")
        whole[position] ^= data.draw(st.integers(1, 255), label="xor")
        events, _parser = drive(bytes(whole), chunk)
        before = 0
        while sum(map(len, frames[: before + 1])) <= position:
            before += 1
        assert events[:before] == expected[:before]
        assert len(events) <= len(whole)  # it ended

    @settings(max_examples=30, deadline=None)
    @given(
        frames=pipelines,
        chunk=st.sampled_from((512, 1 << 16)),
        declared=st.one_of(
            st.integers(FUZZ_MAX_VALUE + 1, 20_000),
            st.integers(ABSOLUTE_MAX_VALUE_BYTES + 1, 1 << 40),
        ),
        honest=st.booleans(),
    )
    def test_an_oversized_length_is_never_held(
        self, frames, chunk, declared, honest
    ):
        """A declared length past ``MAX_VALUE_BYTES`` is consumed without
        being buffered (it used to be held whole, up to 64 MiB per
        connection); past the absolute bound the connection is dropped
        at the command line.  Either way the pipeline before it stands,
        and when the peer really sent that many bytes, so does the one
        after."""
        expected = reference(frames)
        body = b"z" * min(declared, 20_000) if honest else b"short"
        oversized = b"set big 0 0 %d\r\n%s\r\n" % (declared, body)
        events, parser = drive(
            b"".join(frames) + oversized + b"".join(frames), chunk
        )
        assert events[: len(expected)] == expected
        rest = events[len(expected) :]
        if declared > ABSOLUTE_MAX_VALUE_BYTES:
            (refusal,) = rest
            assert refusal.fatal
        elif honest:
            refusal = rest[0]
            assert not refusal.fatal
            assert rest[1:] == expected and not parser.mid_command
        else:
            # The bytes it was promised are taken out of what follows:
            # what that parses to is not the point, that drive() saw it
            # end inside the buffer bound is.
            return
        assert refusal.reply.startswith(b"CLIENT_ERROR object too large")
