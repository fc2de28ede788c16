"""Every codec's ``decompress`` fails only with :class:`CodecError`.

The Z-zone quarantines a block whose codec raises, and it catches
``CodecError`` alone: any other exception type escaping a codec would
surface as a failed request instead of a counted, quarantined miss.
So damaged input — arbitrary bytes, a valid payload cut short, a valid
payload with one bit flipped — must come back as bytes (the zone's
length check judges those) or as a ``CodecError``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CodecError
from repro.compression.base import Compressed
from repro.compression.lz4 import LZ4Compressor
from repro.compression.model import ModelCompressor
from repro.compression.null import NullCompressor
from repro.compression.zlibc import ZlibCompressor
from repro.faults.codec import FaultyCompressor
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec


def _faulty():
    plan = FaultPlan(
        seed=3,
        specs=(
            FaultSpec(site="codec.decompress", rate=0.25, mode="error"),
            FaultSpec(site="codec.decompress", rate=0.25, mode="garbage"),
        ),
    )
    return FaultyCompressor(ZlibCompressor(), FaultInjector(plan))


CODECS = {
    "zlib": ZlibCompressor,
    "lz4": LZ4Compressor,
    "null": NullCompressor,
    "model": ModelCompressor,
    "faulty": _faulty,
}

#: Containers shaped like the zone's: repetitive text, so the LZ4 and
#: DEFLATE paths (not only their raw fallbacks) get damaged.
_DATA = st.builds(
    lambda words, reps: b" ".join(words) * reps,
    st.lists(st.binary(min_size=1, max_size=12), min_size=1, max_size=20),
    st.integers(min_value=1, max_value=8),
)


def _decompress_or_codec_error(codec, payload: bytes) -> None:
    try:
        out = codec.decompress(Compressed(payload=payload, stored_size=len(payload)))
    except CodecError:
        return
    assert isinstance(out, bytes)


@pytest.mark.parametrize("name", sorted(CODECS))
class TestDamagedPayloads:
    @settings(max_examples=150, deadline=None)
    @given(payload=st.binary(max_size=512))
    def test_arbitrary_bytes(self, name, payload):
        _decompress_or_codec_error(CODECS[name](), payload)

    @settings(max_examples=100, deadline=None)
    @given(data=_DATA, cut=st.integers(min_value=0))
    def test_truncated(self, name, data, cut):
        codec = CODECS[name]()
        payload = codec.compress(data).payload
        _decompress_or_codec_error(codec, payload[: cut % (len(payload) + 1)])

    @settings(max_examples=100, deadline=None)
    @given(data=_DATA, bit=st.integers(min_value=0))
    def test_bit_flipped(self, name, data, bit):
        codec = CODECS[name]()
        damaged = bytearray(codec.compress(data).payload)
        if not damaged:
            return
        bit %= len(damaged) * 8
        damaged[bit // 8] ^= 1 << (bit % 8)
        _decompress_or_codec_error(codec, bytes(damaged))
