"""Property tests: the journal codec and replay under arbitrary damage.

Two invariants, checked over generated inputs:

1. the record codec round-trips *any* key/value bytes, and
2. however a segment is damaged — truncated at any byte, or any single
   bit flipped — replay yields a strict prefix of the records written,
   never a record that was not written (no wrong bytes, ever).
"""

from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.durability.journal import (
    OP_DELETE,
    OP_SET,
    JournalConfig,
    JournalWriter,
    decode_payload,
    encode_record,
    read_segment,
)
from repro.durability.manager import replay_journal
from repro.core import SimpleKVCache
from repro.nzone import PlainZone

keys = st.binary(min_size=1, max_size=64)
values = st.binary(min_size=0, max_size=256)


class TestCodecRoundtrip:
    @given(key=keys, value=values)
    def test_set_roundtrip(self, key, value):
        payload = encode_record(OP_SET, key, value)[4:-4]
        assert decode_payload(payload) == (OP_SET, key, value, 0)

    @given(key=keys)
    def test_delete_roundtrip(self, key):
        payload = encode_record(OP_DELETE, key)[4:-4]
        assert decode_payload(payload) == (OP_DELETE, key, b"", 0)

    @given(key=keys, value=values)
    def test_frame_length_matches_encoding(self, key, value):
        record = encode_record(OP_SET, key, value)
        payload_len = int.from_bytes(record[:4], "big")
        assert len(record) == 4 + payload_len + 4


def write_segment(directory, records):
    """One segment holding ``records``; returns its path."""
    config = JournalConfig(directory=directory, fsync="never")
    with JournalWriter(config) as writer:
        for key, value in records:
            writer.append_set(key, value)
        return writer.current_path


records_strategy = st.lists(
    st.tuples(keys, values), min_size=1, max_size=8
)


class TestDamagedReplayNeverLies:
    @settings(max_examples=40, deadline=None)
    @given(
        records=records_strategy,
        cut=st.integers(min_value=0, max_value=10_000),
    )
    def test_truncation_yields_strict_prefix(self, tmp_path_factory, records,
                                             cut):
        directory = str(tmp_path_factory.mktemp("trunc"))
        path = write_segment(directory, records)
        raw = Path(path).read_bytes()
        cut = min(cut, len(raw))
        Path(path).write_bytes(raw[:cut])

        replayed = []
        scan = read_segment(
            path, lambda op, k, v, _flags: replayed.append((k, v))
        )
        # Whatever survived is exactly the first N records written.
        assert replayed == records[: len(replayed)]
        if cut == len(raw):
            assert scan.clean
            assert len(replayed) == len(records)

    @settings(max_examples=40, deadline=None)
    @given(records=records_strategy, data=st.data())
    def test_single_bit_flip_never_fabricates(self, tmp_path_factory, records,
                                              data):
        directory = str(tmp_path_factory.mktemp("flip"))
        path = write_segment(directory, records)
        raw = bytearray(Path(path).read_bytes())
        position = data.draw(
            st.integers(min_value=0, max_value=len(raw) - 1), label="byte"
        )
        bit = data.draw(st.integers(min_value=0, max_value=7), label="bit")
        raw[position] ^= 1 << bit
        Path(path).write_bytes(bytes(raw))

        replayed = []
        read_segment(path, lambda op, k, v, _flags: replayed.append((k, v)))
        # A flip inside record i kills record i and everything after it
        # (replay stops at the first damage); records before it are
        # untouched.  In no case does a record we never wrote appear.
        assert replayed == records[: len(replayed)]

    @settings(max_examples=25, deadline=None)
    @given(records=records_strategy, data=st.data())
    def test_full_recovery_path_survives_bit_flips(self, tmp_path_factory,
                                                   records, data):
        """End-to-end replay_journal: damage is truncated or quarantined,
        and the recovered cache holds only values that were written."""
        directory = str(tmp_path_factory.mktemp("recover"))
        path = write_segment(directory, records)
        raw = bytearray(Path(path).read_bytes())
        position = data.draw(
            st.integers(min_value=0, max_value=len(raw) - 1), label="byte"
        )
        raw[position] ^= 1 << data.draw(
            st.integers(min_value=0, max_value=7), label="bit"
        )
        Path(path).write_bytes(bytes(raw))

        cache = SimpleKVCache(PlainZone(1 << 22))
        result = replay_journal(directory, cache)
        legal = {}
        for key, value in records:
            legal.setdefault(key, set()).add(value)
        seen = 0
        for key, value in cache.nzone.items():
            assert value in legal.get(key, set()), (key, value)
            seen += 1
        assert seen <= len(records)
        if not result.clean:
            # Damage was contained: segment truncated in place, or (magic
            # hit) quarantined — either way the directory is clean now.
            again = replay_journal(directory, SimpleKVCache(PlainZone(1 << 22)))
            assert again.clean
