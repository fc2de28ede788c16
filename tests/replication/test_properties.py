"""Property tests: the replication wire and the journal tailer under damage.

The standard is the one ``tests/durability/test_properties.py`` sets for
the journal.  However a byte stream is damaged — cut at any byte, or any
single bit flipped — a reader yields a strict *prefix* of what was
written and then stops (cleanly, or with the one error it is allowed):
never a frame or record that was not written, never another exception.
"""

import asyncio
import os

from hypothesis import given, settings, strategies as st

from repro.common.errors import JournalError, ReplicationError
from repro.common.framing import (
    MAX_PAYLOAD,
    OP_SET,
    decode_payload,
    encode_payload,
)
from repro.durability.journal import (
    JournalConfig,
    JournalWriter,
    list_segments,
)
from repro.replication import wire
from repro.replication.tailer import JournalTailer

u64 = st.integers(min_value=0, max_value=2**64 - 1)
keys = st.binary(min_size=1, max_size=32)
values = st.binary(min_size=0, max_size=96)

#: type -> (encode(*fields) -> framed bytes, decode(body) -> fields)
CODECS = {
    wire.HELLO: (
        lambda seg, off: wire.encode_frame(
            wire.HELLO, wire.encode_position(seg, off)
        ),
        wire.decode_position,
    ),
    wire.SNAP_BEGIN: (
        lambda seg, off: wire.encode_frame(
            wire.SNAP_BEGIN, wire.encode_position(seg, off)
        ),
        wire.decode_position,
    ),
    wire.SNAP_CHUNK: (
        lambda chunk: wire.encode_frame(wire.SNAP_CHUNK, chunk),
        lambda body: (body,),
    ),
    wire.SNAP_END: (lambda: wire.encode_frame(wire.SNAP_END), lambda body: ()),
    wire.RECORD: (wire.encode_record_frame, wire.decode_record_body),
    wire.HEARTBEAT: (wire.encode_heartbeat, wire.decode_heartbeat),
    wire.ACK: (wire.encode_ack, wire.decode_ack),
}

typed_frames = st.one_of(
    st.tuples(st.just(wire.HELLO), st.tuples(u64, u64)),
    st.tuples(st.just(wire.SNAP_BEGIN), st.tuples(u64, u64)),
    st.tuples(st.just(wire.SNAP_CHUNK), st.tuples(values)),
    st.tuples(st.just(wire.SNAP_END), st.tuples()),
    st.tuples(
        st.just(wire.RECORD),
        st.tuples(u64, u64, st.builds(encode_payload, st.just(OP_SET), keys, values)),
    ),
    st.tuples(st.just(wire.HEARTBEAT), st.tuples(u64, u64, u64, u64)),
    st.tuples(st.just(wire.ACK), st.tuples(u64, u64, u64)),
)
frame_lists = st.lists(typed_frames, min_size=1, max_size=6)


def encode_stream(frames):
    return b"".join(CODECS[kind][0](*fields) for kind, fields in frames)


def read_stream(raw):
    """Every (type, fields) ``read_frame`` + the typed decoders yield
    from ``raw`` before the stream ends or is refused."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        out = []
        try:
            while True:
                frame = await wire.read_frame(reader)
                if frame is None:
                    return out
                kind, body = frame
                out.append((kind, tuple(CODECS[kind][1](body))))
        except ReplicationError:
            return out

    return asyncio.run(go())


class TestWireNeverLies:
    @settings(max_examples=60, deadline=None)
    @given(frames=frame_lists)
    def test_undamaged_stream_roundtrips(self, frames):
        assert read_stream(encode_stream(frames)) == frames

    @settings(max_examples=60, deadline=None)
    @given(frames=frame_lists, cut=st.integers(min_value=0, max_value=10_000))
    def test_truncation_yields_strict_prefix(self, frames, cut):
        raw = encode_stream(frames)
        got = read_stream(raw[: min(cut, len(raw))])
        assert got == frames[: len(got)]
        if cut < len(raw):
            assert len(got) < len(frames)

    @settings(max_examples=80, deadline=None)
    @given(frames=frame_lists, data=st.data())
    def test_single_bit_flip_never_fabricates(self, frames, data):
        raw = bytearray(encode_stream(frames))
        position = data.draw(
            st.integers(min_value=0, max_value=len(raw) - 1), label="byte"
        )
        raw[position] ^= 1 << data.draw(
            st.integers(min_value=0, max_value=7), label="bit"
        )
        got = read_stream(bytes(raw))
        # The flipped frame and everything after it are refused: TCP
        # gives no way to resynchronise inside a broken stream.
        assert got == frames[: len(got)]
        assert len(got) < len(frames)


def write_directory(directory, records, segment_bytes=160):
    """A journal of SETs, small segments so the tail crosses rotations."""
    config = JournalConfig(
        directory=directory, segment_bytes=segment_bytes, fsync="never"
    )
    with JournalWriter(config) as writer:
        for key, value in records:
            writer.append_set(key, value)
    return list_segments(directory)


def tail_everything(directory, first_seq, batch):
    """Decoded (key, value) of every record the tailer yields before it
    runs dry or refuses the directory with a JournalError."""
    tailer = JournalTailer(directory, first_seq, 0)
    out = []
    try:
        while True:
            records = tailer.read_batch(batch)
            if not records:
                return out
            out.extend(decode_payload(payload)[1:3] for payload, _s, _e in records)
    except JournalError:
        return out
    finally:
        tailer.close()


records_strategy = st.lists(st.tuples(keys, values), min_size=1, max_size=10)
batches = st.sampled_from((1, 3, 256))


class TestTailerNeverLies:
    @settings(max_examples=40, deadline=None)
    @given(
        records=records_strategy,
        batch=batches,
        cut=st.integers(min_value=0, max_value=10_000),
    )
    def test_torn_tail_yields_strict_prefix(self, tmp_path_factory, records,
                                            batch, cut):
        """A crash tears the newest segment only: the writer closes a
        segment before it creates the next."""
        directory = str(tmp_path_factory.mktemp("tail-cut"))
        segments = write_directory(directory, records)
        _seq, newest = segments[-1]
        size = os.path.getsize(newest)
        with open(newest, "r+b") as stream:
            stream.truncate(min(cut, size))
        got = tail_everything(directory, segments[0][0], batch)
        assert got == records[: len(got)]
        if cut >= size:
            assert got == records

    @settings(max_examples=60, deadline=None)
    @given(records=records_strategy, batch=batches, data=st.data())
    def test_single_bit_flip_never_fabricates(self, tmp_path_factory, records,
                                              batch, data):
        """Rot anywhere, in any segment: the records before it, then
        nothing — a tailer that skipped to the next segment would ship
        history with a hole in it."""
        directory = str(tmp_path_factory.mktemp("tail-flip"))
        segments = write_directory(directory, records)
        _seq, victim = data.draw(st.sampled_from(segments), label="segment")
        position = data.draw(
            st.integers(min_value=0, max_value=os.path.getsize(victim) - 1),
            label="byte",
        )
        with open(victim, "r+b") as stream:
            stream.seek(position)
            byte = stream.read(1)[0]
            stream.seek(position)
            stream.write(
                bytes((byte ^ 1 << data.draw(st.integers(0, 7), label="bit"),))
            )
        got = tail_everything(directory, segments[0][0], batch)
        assert got == records[: len(got)]
        assert len(got) < len(records)

    def test_hostile_length_reads_no_more_than_the_journal_bound(self, tmp_path):
        records = [(b"k%d" % i, b"v" * 20) for i in range(3)]
        ((seq, path),) = write_directory(str(tmp_path), records, 1 << 20)
        tailer = JournalTailer(str(tmp_path), seq, 0)
        assert len(tailer.read_batch()) == 3

        asked = []

        class Recording:
            def __init__(self, stream):
                self.stream = stream

            def read(self, size):
                asked.append(size)
                return self.stream.read(size)

            def __getattr__(self, name):
                return getattr(self.stream, name)

        tailer._stream = Recording(tailer._stream)
        with open(path, "ab") as stream:
            stream.write(b"\xff\xff\xff\xff" + b"not four gigabytes")
        assert tailer.read_batch() == []
        assert tailer.position[1] == os.path.getsize(path) - 22
        assert asked and max(asked) <= MAX_PAYLOAD + 4
        tailer.close()
