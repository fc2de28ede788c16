"""Framing independence of the whole server, over real sockets.

What a client gets back, and what the server counts, must depend on the
bytes it sent and not on how TCP happened to cut them up: the callback
data plane parses, parks and flushes per ``buffer_updated``, so every
one of those steps is a chance to let a segment boundary show.
One seeded script of mixed frames is sent as one segment, a byte at a
time, and at random cuts; the three reply streams must be identical
byte for byte and the three servers' counters equal.
"""

import asyncio
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.server import protocol
from repro.server.server import wire_name
from tests.metrics.exposition import untimed_summary

from .test_server import make_cache, running_server

#: The server's value bound, patched down so an oversized frame is small.
MAX_VALUE_BYTES = 256

def build_script(seed: int) -> bytes:
    """~90 frames: every kind the parser knows at least once, then a
    random mix, ``quit`` last."""
    rng = random.Random(seed)
    keys = [b"k%02d" % index for index in range(12)]

    def frame(kind: str) -> bytes:
        key = rng.choice(keys)
        value = bytes(rng.choice(b"abcdefgh") for _ in range(rng.randrange(40)))
        tail = b" noreply" if rng.random() < 0.3 else b""
        if kind == "get":
            return b"get %s\r\n" % key
        if kind == "gets":
            return b"gets %s\r\n" % key
        if kind == "multiget":
            return b"get %s\r\n" % b" ".join(rng.sample(keys, 3))
        if kind == "set":
            return b"set %s %d 0 %d%s\r\n%s\r\n" % (
                key, rng.randrange(100), len(value), tail, value
            )
        if kind == "cas":
            # Tokens are small integers, so some match and some do not.
            return b"cas %s 0 0 %d %d\r\n%s\r\n" % (
                key, len(value), rng.randrange(1, 8), value
            )
        if kind == "delete":
            return b"delete %s%s\r\n" % (key, tail)
        if kind == "bad":
            return rng.choice(
                [b"bogus\r\n", b"get\r\n", b"\r\n", b"delete a b c\r\n",
                 b"set k 0 0\r\n", b"get " + b"x" * 300 + b"\r\n"]
            )
        oversized = MAX_VALUE_BYTES + rng.randrange(1, 64)
        return b"set %s 0 0 %d\r\n%s\r\n" % (key, oversized, b"z" * oversized)

    kinds = ["get", "gets", "multiget", "set", "cas", "delete", "bad", "oversized"]
    weights = [25, 10, 10, 20, 10, 10, 8, 7]
    frames = [frame(kind) for kind in ["set"] + kinds]
    frames += [frame(kind) for kind in rng.choices(kinds, weights, k=80)]
    frames.append(b"quit\r\n")
    return b"".join(frames)


async def serve_chunks(chunks):
    """A fresh server fed ``chunks`` one segment each; (replies, counters)."""
    with mock.patch.object(protocol, "MAX_VALUE_BYTES", MAX_VALUE_BYTES):
        async with running_server(make_cache()) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            for chunk in chunks:
                writer.write(chunk)
                await writer.drain()
                if len(chunks) > 1:
                    # Two turns of the shared loop: the server reads this
                    # segment before the next one is written.
                    await asyncio.sleep(0)
                    await asyncio.sleep(0)
            replies = await asyncio.wait_for(reader.read(), 10.0)  # quit -> EOF
            writer.close()
            # Everything the registry holds that does not follow the wall
            # clock — cache counters and both payload histograms included:
            # the dispatch unit is one command, however the commands arrived.
            return replies, untimed_stats(server)


def untimed_stats(server):
    """``server.stats_dict()`` less the series that follow the wall clock."""
    registry = server.registry
    kept = untimed_summary(registry)
    timed = {
        wire_name(name, owned=not registry.is_view(name))
        for name in registry.summary()
        if name not in kept
    }
    return {k: v for k, v in server.stats_dict().items() if k not in timed}


class TestFramingIndependence:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_replies_and_counters_ignore_segment_boundaries(self, seed, data):
        script = build_script(seed)
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(1, len(script) - 1), max_size=40, unique=True
                )
            )
        )
        split = [
            script[start:end]
            for start, end in zip([0] + cuts, cuts + [len(script)])
        ]

        async def scenario():
            whole = await serve_chunks([script])
            bytewise = await serve_chunks(
                [script[index : index + 1] for index in range(len(script))]
            )
            assert bytewise == whole
            assert await serve_chunks(split) == whole
            return whole

        replies, counters = asyncio.run(scenario())
        # The script did exercise what it claims to.
        assert b"STORED" in replies and b"too large" in replies
        assert counters["protocol_errors"] > counters["oversized_rejects"] > 0
        assert counters["commands"] > 40 and counters["cmd_get"] > 10
        assert counters["metrics_server_get_value_bytes_count"] > 0
        assert counters["cache_zzone_puts"] >= 0 and len(counters) > 121
