"""The ledger's frozen load: four workloads, rendered from a seed alone.

Nothing here imports the program under test.  A workload is fully
described by ``(name, seed)``: key names, value sizes, value bytes per
version, the populate order and the operation stream all come out of
seeded numpy generators and an embedded vocabulary, so a change under
``src/`` can never move the inputs.  ``digest()`` hashes the first
rendered request frames; ``run.py`` compares it with ``frozen.json`` and
refuses to run when the load has drifted (a numpy upgrade that changes a
``Generator`` stream would show there too).

Values are word salad cut from a seeded corpus: text-like, so a 2 KB
Z-zone block of them deflates about 2x, as the paper's tweets do.  A SET
of version *v* writes ``corpus[offset(key, v):][:size(key)]`` — the bytes
depend on (key, v) while the size is a property of the key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

GET, SET, DELETE = 0, 1, 2

CRLF = b"\r\n"
END = b"END\r\n"
STORED = b"STORED\r\n"
DELETED = b"DELETED\r\n"
NOT_FOUND = b"NOT_FOUND\r\n"

#: Lower-case only: no value can contain ``END`` or a line break, which
#: is what lets the client find reply boundaries without parsing.
VOCABULARY = (
    "the be to of and a in that have i it for not on with he as you do at "
    "this but his by from they we say her she or an will my one all would "
    "there their what so up out if about who get which go me when make can "
    "like time no just him know take people into year your good some could "
    "them see other than then now look only come its over think also back "
    "after use two how our work first well way even new want because any "
    "these give day most us today tonight morning coffee lunch train late "
    "meeting weekend friends music movie game team win lost score season "
    "weather rain snow sunny cold warm traffic phone photo video link post "
    "follow thanks please sorry happy sad tired excited waiting watching "
    "reading listening playing running eating drinking sleeping working "
    "great awesome terrible amazing funny weird crazy boring love hate "
    "need hope wish feel seems never always maybe really pretty little "
    "big old young best worst last next every another still again ever "
    "home school office city street park beach airport hotel kitchen "
    "dinner breakfast pizza burger salad cheese chocolate water beer wine "
    "monday tuesday friday saturday sunday january summer winter birthday "
    "party concert festival holiday vacation flight ticket price money "
    "cache server request memory block zone compress value store miss hit"
).split()

#: Populate pipelining depth (frames per send).
POPULATE_DEPTH = 32
#: Keys per burst in ``cold_get``'s batched phase.
BURST_KEYS = 16
#: Operation-stream chunk: generated, then consumed, 65,536 ops at a time.
CHUNK_OPS = 1 << 16
_CORPUS_BYTES = 1 << 20
_MAX_VALUE_BYTES = 8192


@dataclass(frozen=True)
class WorkloadSpec:
    """What a workload is and why it exists (``why`` lands in BENCHMARK.json)."""

    name: str
    why: str
    keys: int
    sizes: str  # "tweet" | "etc"
    zipf_theta: Optional[float]  # None = uniform
    get_share: float
    set_share: float  # the rest is DELETE
    prepopulate: bool
    demand_fill: bool = False
    bursts: bool = False
    journal: bool = False


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="hot_get",
            why="2,000 keys fit the N-zone: wire, admission, dispatch and "
            "asyncio are the whole cost; a Z-zone change must predict no move",
            keys=2_000,
            sizes="tweet",
            zipf_theta=None,
            get_share=1.0,
            set_share=0.0,
            prepopulate=True,
        ),
        WorkloadSpec(
            name="cold_get",
            why="40,000 keys resident only by compression: ~80% of hits pay "
            "trie, filter, CRC, decompress and scan; depth-1 GETs, then "
            "16-key bursts",
            keys=40_000,
            sizes="tweet",
            zipf_theta=None,
            get_share=1.0,
            set_share=0.0,
            prepopulate=True,
            bursts=True,
        ),
        WorkloadSpec(
            name="etc_mix",
            why="the paper's ETC mix, Zipf 1.085, data ~2x capacity: the only "
            "workload with real misses, where a speed-for-capacity trade shows "
            "its cost",
            keys=50_000,
            sizes="etc",
            zipf_theta=1.085,
            get_share=0.92,
            set_share=0.073,
            prepopulate=True,
            demand_fill=True,
        ),
        WorkloadSpec(
            name="set_churn",
            why="90% SET over 40,000 keys with the journal on: N-zone "
            "evictions recompress Z-zone blocks, every write is appended, "
            "checkpoints fire",
            keys=40_000,
            sizes="tweet",
            zipf_theta=None,
            get_share=0.10,
            set_share=0.90,
            prepopulate=False,
            journal=True,
        ),
    )
}


def _seed_sequence(seed: int, name: str, stream: str) -> np.random.Generator:
    """One independent generator per (seed, workload, purpose)."""
    tag = int.from_bytes(
        hashlib.sha256(f"{name}/{stream}".encode()).digest()[:8], "big"
    )
    return np.random.default_rng([seed, tag])


def _tweet_sizes(rng: np.random.Generator, count: int) -> np.ndarray:
    sizes = np.rint(rng.normal(90.0, 30.0, count))
    return np.clip(sizes, 20, 250).astype(np.int64)


def _etc_sizes(rng: np.random.Generator, count: int) -> np.ndarray:
    """ETC value sizes: 40% tiny, 50% medium lognormal, 10% large lognormal."""
    which = rng.random(count)
    tiny = rng.integers(2, 16, count)
    medium = np.clip(rng.lognormal(np.log(120.0), 0.8, count), 16, 500)
    large = np.clip(
        rng.lognormal(np.log(700.0), 0.6, count), 500, _MAX_VALUE_BYTES
    )
    sizes = np.where(which < 0.4, tiny, np.where(which < 0.9, medium, large))
    return np.rint(sizes).astype(np.int64)


def _corpus(rng: np.random.Generator) -> bytes:
    """Seeded word salad, Zipf-weighted so common words repeat within a block."""
    weights = 1.0 / (np.arange(len(VOCABULARY)) + 4.0)
    cdf = np.cumsum(weights / weights.sum())
    # Mean word + space is ~6 bytes; draw generously, then cut.
    picks = np.searchsorted(cdf, rng.random((_CORPUS_BYTES + _MAX_VALUE_BYTES) // 4))
    words = [VOCABULARY[min(int(i), len(VOCABULARY) - 1)] for i in picks]
    text = " ".join(words).encode("ascii")
    return text[: _CORPUS_BYTES + _MAX_VALUE_BYTES]


class Load:
    """One workload at one seed: frames, values, populate order, op stream."""

    def __init__(self, name: str, seed: int) -> None:
        self.spec = WORKLOADS[name]
        self.seed = seed
        spec = self.spec
        count = spec.keys
        size_rng = _seed_sequence(seed, name, "sizes")
        sizer = _tweet_sizes if spec.sizes == "tweet" else _etc_sizes
        self.sizes: List[int] = sizer(size_rng, count).tolist()
        self._corpus = _corpus(_seed_sequence(seed, name, "corpus"))
        self._salt = int(_seed_sequence(seed, name, "salt").integers(1 << 32))
        self.keys: List[bytes] = [b"key:%08d" % i for i in range(count)]
        self.get_frames = [b"get " + key + CRLF for key in self.keys]
        self.delete_frames = [b"delete " + key + CRLF for key in self.keys]
        self.set_heads = [
            b"set %s 0 0 %d\r\n" % (key, size)
            for key, size in zip(self.keys, self.sizes)
        ]
        self.hit_heads = [
            b"VALUE %s 0 %d\r\n" % (key, size)
            for key, size in zip(self.keys, self.sizes)
        ]
        self.populate_order: List[int] = (
            _seed_sequence(seed, name, "populate").permutation(count).tolist()
            if spec.prepopulate
            else []
        )
        self._op_rng = _seed_sequence(seed, name, "ops")
        self._popularity: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if spec.zipf_theta is not None:
            weights = 1.0 / np.arange(1, count + 1) ** spec.zipf_theta
            cdf = np.cumsum(weights / weights.sum())
            ranks_to_keys = _seed_sequence(seed, name, "ranks").permutation(count)
            self._popularity = (cdf, ranks_to_keys)
        #: Kinds of every op generated so far, so a window of the stream
        #: can be recounted after the fact (``count_gets``).
        self._kinds_log: List[np.ndarray] = []

    # -- values ------------------------------------------------------------------

    def value(self, key_id: int, version: int) -> bytes:
        """The bytes a SET of ``version`` writes under ``key_id``."""
        mixed = (
            key_id * 0x9E3779B1 + version * 0x85EBCA77 + self._salt
        ) & 0xFFFFFFFF
        offset = mixed % _CORPUS_BYTES
        return self._corpus[offset : offset + self.sizes[key_id]]

    def set_frame(self, key_id: int, value: bytes) -> bytes:
        return self.set_heads[key_id] + value + CRLF

    def hit_reply(self, key_id: int, value: bytes) -> bytes:
        """The exact reply to a single-key GET that hits ``value``."""
        return self.hit_heads[key_id] + value + CRLF + END

    # -- the operation stream ---------------------------------------------------

    def op_chunks(self) -> Iterator[Tuple[List[int], List[int]]]:
        """Endless ``(kinds, key_ids)`` chunks; the stream never depends on
        what the server answered (demand fills are the driver's business)."""
        spec = self.spec
        count = spec.keys
        set_edge = spec.get_share + spec.set_share
        while True:
            rng = self._op_rng
            if self._popularity is None:
                key_ids = rng.integers(0, count, CHUNK_OPS)
            else:
                cdf, ranks_to_keys = self._popularity
                ranks = np.searchsorted(cdf, rng.random(CHUNK_OPS))
                key_ids = ranks_to_keys[np.minimum(ranks, count - 1)]
            draw = rng.random(CHUNK_OPS)
            kinds = np.where(
                draw < spec.get_share, GET, np.where(draw < set_edge, SET, DELETE)
            ).astype(np.uint8)
            self._kinds_log.append(kinds)
            yield kinds.tolist(), key_ids.tolist()

    def count_gets(self, start: int, stop: int) -> int:
        """GETs among stream ops ``[start, stop)`` (already generated)."""
        kinds = np.concatenate(self._kinds_log)[start:stop]
        return int(np.count_nonzero(kinds == GET))

    # -- the frozen-load digest -------------------------------------------------

    def digest(self, frames: int = 1000) -> str:
        """SHA-256 over the first populate frames and the first op frames.

        Op frames are rendered as the driver would with no miss ever
        (version = SETs of that key so far, populate included), so the
        digest is a property of the load alone.  Call on a fresh Load: it
        consumes the op generator.
        """
        sha = hashlib.sha256()
        versions: Dict[int, int] = {}
        for key_id in self.populate_order[:frames]:
            versions[key_id] = 1
            sha.update(self.set_frame(key_id, self.value(key_id, 1)))
        for key_id in self.populate_order[frames:]:
            versions[key_id] = 1
        kinds, key_ids = next(self.op_chunks())
        for kind, key_id in zip(kinds[:frames], key_ids[:frames]):
            if kind == GET:
                sha.update(self.get_frames[key_id])
            elif kind == SET:
                version = versions.get(key_id, 0) + 1
                versions[key_id] = version
                sha.update(self.set_frame(key_id, self.value(key_id, version)))
            else:
                sha.update(self.delete_frames[key_id])
        return sha.hexdigest()


def digests(seed: int = 1) -> Dict[str, str]:
    """The frozen-load digest of every workload at ``seed``."""
    return {name: Load(name, seed).digest() for name in WORKLOADS}
