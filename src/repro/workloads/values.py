"""Synthetic value corpora.

The paper's values come from two Twitter-derived data sets: ~10 M real
tweets (average 92 B) and *Places* records — Twitter's geographic-location
schema filled with random data and serialised with Protocol Buffers
(average 100.9 B).  Neither corpus ships with the paper, so this module
generates statistical stand-ins:

* :class:`TweetValueGenerator` — short English-like word streams with
  Twitter artefacts (mentions, hashtags, URLs) mixed in.  The artefacts are
  high-entropy, which keeps *individual* compression unprofitable while
  batched containers still deduplicate the shared vocabulary — the
  qualitative shape of Table 2's "Tweets" row.
* :class:`PlacesValueGenerator` — protobuf-style wire encoding (varint
  tags, length-delimited strings, fixed64 doubles) of a Places-like record.
  Field names repeat across records, so batching pays off strongly, like
  Table 2's "Places" row.

Both generators are deterministic per (seed, index), which lets
:class:`ValueSource` hand out a stable value for every key id without
storing the whole corpus.
"""

from __future__ import annotations

import abc
import random
import struct
from typing import Dict, Optional

from repro.common.rng import make_rng

# A compact vocabulary of frequent English words.  Small on purpose: real
# tweet streams share vocabulary heavily, which is exactly what makes
# batched compression effective.
_WORDS = (
    "the be to of and a in that have I it for not on with he as you do at "
    "this but his by from they we say her she or an will my one all would "
    "there their what so up out if about who get which go me when make can "
    "like time no just him know take people into year your good some could "
    "them see other than then now look only come its over think also back "
    "after use two how our work first well way even new want because any "
    "these give day most us great love today never really still feel happy "
    "home night life world friend music video photo watch live free best"
).split()

# Multi-word collocations: real tweet streams share phrases, not just
# words, and LZ4's 4-byte minimum match only pays off on runs this long.
_PHRASES = (
    "thanks for the follow", "cant wait for", "looking forward to",
    "happy birthday to", "check this out", "oh my god", "i love this",
    "so excited about", "good morning everyone", "have a great day",
    "what do you think", "on my way to", "just finished watching",
    "follow me back", "see you soon", "this is amazing", "i cant believe",
    "one of the best", "in the world", "at the end of the day",
    "for the first time", "let me know", "thank you so much", "by the way",
    "right now", "last night", "this weekend", "new blog post",
    "my new video", "live right now", "tune in tonight", "dont forget to",
    "retweet if you", "click the link", "in my life", "all the time",
    "me and my friends", "back to work", "time to sleep",
    "need more coffee", "best day ever", "so much fun",
    "listening to music", "watching the game", "at the airport",
    "stuck in traffic",
)

_PLACE_NAMES = (
    "Springfield Riverside Franklin Greenville Bristol Clinton Fairview "
    "Salem Madison Georgetown Arlington Ashland Dover Oxford Jackson "
    "Burlington Manchester Milton Newport Auburn Dayton Lexington Milford "
    "Winchester Hudson Kingston Clayton Riverton Lakewood Centerville"
).split()

_COUNTRY_CODES = ("US", "GB", "CA", "AU", "BR", "JP", "DE", "FR", "IN", "MX")

_PLACE_TYPES = ("poi", "neighborhood", "city", "admin", "country")


class ValueGenerator(abc.ABC):
    """Generates one value deterministically per (seed, index)."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    @abc.abstractmethod
    def generate(self, index: int) -> bytes:
        """Return the value for ``index``; stable across calls."""

    def corpus(self, count: int):
        """Yield the values of indices ``0 .. count - 1``."""
        for index in range(count):
            yield self.generate(index)


#: Words, phrases and artefacts in a tweet, on average.
MEAN_PARTS = 9


class TweetValueGenerator(ValueGenerator):
    """English-like tweet texts averaging ~92 bytes.

    High-entropy Twitter artefacts (user mentions, shortened URLs, emoji
    escapes, numeric tokens) are mixed into the word stream.  They are what
    keeps *individual* compression unprofitable on real tweets — a 92 B
    message has too little self-redundancy — while batched containers still
    win by deduplicating vocabulary across tweets.
    """

    def _rng_for(self, index: int) -> random.Random:
        return make_rng(self.seed, f"tweet-{index}")

    def generate(self, index: int) -> bytes:
        rng = self._rng_for(index)
        count = max(2, int(rng.gauss(MEAN_PARTS, MEAN_PARTS / 3)))
        parts = []
        for _ in range(count):
            draw = rng.random()
            if draw < 0.38:
                parts.append(rng.choice(_PHRASES))
            elif draw < 0.46:
                parts.append("@" + format(rng.getrandbits(44), "011x"))
            elif draw < 0.53:
                token = format(rng.getrandbits(40), "010x")
                parts.append(f"t.co/{token}")
            elif draw < 0.58:
                parts.append(str(rng.getrandbits(17)))
            else:
                parts.append(rng.choice(_WORDS))
        text = " ".join(parts)
        # Twitter's classic hard limit.
        return text.encode("utf-8")[:140]


def _encode_varint(value: int) -> bytes:
    """Protobuf base-128 varint encoding of a non-negative integer."""
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _encode_tag(field_number: int, wire_type: int) -> bytes:
    return _encode_varint((field_number << 3) | wire_type)


def _encode_string(field_number: int, text: str) -> bytes:
    data = text.encode("utf-8")
    return _encode_tag(field_number, 2) + _encode_varint(len(data)) + data


_DOUBLE = struct.Struct("<d")


def _encode_double(field_number: int, value: float) -> bytes:
    return _encode_tag(field_number, 1) + _DOUBLE.pack(value)


class PlacesValueGenerator(ValueGenerator):
    """Protobuf-encoded Places-like records averaging ~101 bytes.

    Schema (field numbers fixed so the wire bytes repeat across records):
    ``1: id (varint)``, ``2: name (string)``, ``3: full_name (string)``,
    ``4: country_code (string)``, ``5: place_type (string)``,
    ``6: latitude (double)``, ``7: longitude (double)``,
    ``8: url (string)``.
    """

    def generate(self, index: int) -> bytes:
        rng = make_rng(self.seed, f"place-{index}")
        name = rng.choice(_PLACE_NAMES)
        country = rng.choice(_COUNTRY_CODES)
        place_type = rng.choice(_PLACE_TYPES)
        place_id = rng.getrandbits(24)
        # ``full_name`` and the URL slug repeat ``name``; real Places
        # records carry the same internal redundancy, which is what makes
        # them individually compressible (Table 2 row "Places").
        slug = name.lower()
        record = b"".join(
            (
                _encode_tag(1, 0) + _encode_varint(place_id),
                _encode_string(2, name),
                _encode_string(3, f"{name} City, {name} County, {country}"),
                _encode_string(4, country),
                _encode_string(5, place_type),
                _encode_double(6, rng.uniform(-90.0, 90.0)),
                _encode_double(7, rng.uniform(-180.0, 180.0)),
                _encode_string(8, f"place/{slug}/{slug}.{place_type}"),
            )
        )
        return record


class SizedValueSource:
    """Value source that honours a trace's recorded per-key sizes.

    Facebook-like traces draw value *sizes* from published distributions;
    the data plane then needs real bytes of exactly those sizes.  This
    source tiles/truncates a content generator's output to the recorded
    size, preserving the content's compressibility class while matching
    the size model byte-for-byte.
    """

    def __init__(self, trace, generator: ValueGenerator) -> None:
        self._generator = generator
        self._sizes: Dict[int, int] = {}
        for _op, key_id, value_size in trace:
            self._sizes.setdefault(key_id, value_size)
        self._cache: Dict[int, bytes] = {}

    def value(self, key_id: int) -> bytes:
        cached = self._cache.get(key_id)
        if cached is not None:
            return cached
        target = self._sizes.get(key_id)
        base = self._generator.generate(key_id)
        if target is None:
            # Key never appears in the trace (e.g. pre-fill of the whole
            # key space): use the generator's native size.
            target = len(base)
        if not base:
            base = b"\x00"
        if len(base) < target:
            repeats = (target + len(base) - 1) // len(base)
            base = base * repeats
        value = base[:target]
        self._cache[key_id] = value
        return value

    def size(self, key_id: int) -> int:
        return len(self.value(key_id))


class ValueSource:
    """Stable key-id -> value mapping backed by a :class:`ValueGenerator`.

    Values are memoised so the data plane sees consistent bytes for a key
    across SETs and verification GETs; ``max_cache`` bounds the memo for
    very large key spaces.
    """

    def __init__(
        self, generator: ValueGenerator, max_cache: Optional[int] = None
    ) -> None:
        self._generator = generator
        self._cache: Dict[int, bytes] = {}
        self._max_cache = max_cache

    def value(self, key_id: int) -> bytes:
        cached = self._cache.get(key_id)
        if cached is not None:
            return cached
        value = self._generator.generate(key_id)
        if self._max_cache is None or len(self._cache) < self._max_cache:
            self._cache[key_id] = value
        return value

    def size(self, key_id: int) -> int:
        return len(self.value(key_id))
