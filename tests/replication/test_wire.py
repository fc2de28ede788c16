"""Replication stream framing: round-trips, CRC rejection, clean EOF."""

import asyncio
import struct

import pytest

from repro.common.errors import ReplicationError
from repro.replication import wire


def read_one(data: bytes):
    """Feed ``data`` to a StreamReader and read a single frame."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await wire.read_frame(reader)

    return asyncio.run(go())


class TestFrameRoundTrip:
    def test_every_type_round_trips(self):
        for frame_type in (
            wire.HELLO,
            wire.SNAP_BEGIN,
            wire.SNAP_CHUNK,
            wire.SNAP_END,
            wire.RECORD,
            wire.HEARTBEAT,
            wire.ACK,
        ):
            body = b"body bytes \x00\xff" + bytes((frame_type,))
            got = read_one(wire.encode_frame(frame_type, body))
            assert got == (frame_type, body)

    def test_empty_body_round_trips(self):
        assert read_one(wire.encode_frame(wire.HELLO)) == (wire.HELLO, b"")

    def test_frames_read_back_to_back(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(
                wire.encode_frame(wire.HELLO, b"a")
                + wire.encode_frame(wire.ACK, b"b")
            )
            reader.feed_eof()
            first = await wire.read_frame(reader)
            second = await wire.read_frame(reader)
            third = await wire.read_frame(reader)
            return first, second, third

        first, second, third = asyncio.run(go())
        assert first == (wire.HELLO, b"a")
        assert second == (wire.ACK, b"b")
        assert third is None  # clean EOF at a frame boundary

    def test_clean_eof_returns_none(self):
        assert read_one(b"") is None


class TestDamageDetection:
    def test_flipped_body_bit_rejected(self):
        frame = bytearray(wire.encode_frame(wire.RECORD, b"payload"))
        frame[6] ^= 0x01
        with pytest.raises(ReplicationError, match="CRC"):
            read_one(bytes(frame))

    def test_flipped_crc_bit_rejected(self):
        frame = bytearray(wire.encode_frame(wire.RECORD, b"payload"))
        frame[-1] ^= 0x01
        with pytest.raises(ReplicationError, match="CRC"):
            read_one(bytes(frame))

    def test_truncation_mid_frame_rejected(self):
        frame = wire.encode_frame(wire.RECORD, b"payload")
        with pytest.raises(ReplicationError, match="cut mid-frame"):
            read_one(frame[: len(frame) - 3])

    def test_truncation_inside_length_header_rejected(self):
        frame = wire.encode_frame(wire.RECORD, b"payload")
        with pytest.raises(ReplicationError, match="cut mid-frame"):
            read_one(frame[:2])

    def test_zero_length_rejected(self):
        with pytest.raises(ReplicationError, match="implausible"):
            read_one(struct.pack(">I", 0) + struct.pack(">I", 0))

    def test_implausible_length_rejected(self):
        with pytest.raises(ReplicationError, match="implausible"):
            read_one(struct.pack(">I", wire.MAX_FRAME + 1) + b"x" * 16)

    def test_unknown_frame_type_rejected(self):
        with pytest.raises(ReplicationError, match="unknown"):
            read_one(wire.encode_frame(0x7A, b"whatever"))


class TestTypedBodies:
    def test_position_round_trip(self):
        assert wire.decode_position(wire.encode_position(7, 12345)) == (7, 12345)
        with pytest.raises(ReplicationError):
            wire.decode_position(b"short")

    def test_record_body_round_trip(self):
        frame_type, body = read_one(
            wire.encode_record_frame(3, 999, b"journal payload")
        )
        assert frame_type == wire.RECORD
        assert wire.decode_record_body(body) == (3, 999, b"journal payload")

    def test_record_body_must_carry_a_payload(self):
        with pytest.raises(ReplicationError):
            wire.decode_record_body(wire.encode_position(1, 2))

    def test_heartbeat_round_trip(self):
        frame_type, body = read_one(wire.encode_heartbeat(10, 20, 3, 40))
        assert frame_type == wire.HEARTBEAT
        assert wire.decode_heartbeat(body) == (10, 20, 3, 40)
        with pytest.raises(ReplicationError):
            wire.decode_heartbeat(b"short")

    def test_ack_round_trip(self):
        frame_type, body = read_one(wire.encode_ack(55, 2, 300))
        assert frame_type == wire.ACK
        assert wire.decode_ack(body) == (55, 2, 300)
        with pytest.raises(ReplicationError):
            wire.decode_ack(b"short")

    def test_snap_end_round_trip(self):
        """SNAP_END only ends the chunks: the image carries its own seal."""
        assert read_one(wire.encode_frame(wire.SNAP_END)) == (wire.SNAP_END, b"")
