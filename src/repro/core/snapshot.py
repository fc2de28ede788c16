"""Cache snapshots: dump and restore a cache's contents.

Production caches get restarted; losing 60 GB of hot data to a restart
means hours of elevated backend load while the cache re-warms.  This
module serialises a cache's resident items to a compact binary file and
re-inserts them on load — an extension beyond the paper, but the natural
operational companion to a system whose whole point is holding more data.

Format (version 1): an 8-byte magic header, then per item a 4-byte
big-endian key length, 4-byte value length, key bytes, value bytes.  No
pickling — the format is independent of Python versions and safe to load
from untrusted sources (lengths are bounds-checked).

Format (version 2, magic ``ZXSNAP02``): identical except each record
carries a 4-byte big-endian client-``flags`` word between the two
lengths and the key.  Version 2 is only written when the caller passes a
flags source (the server's item-meta sidecar); flag-free snapshots stay
byte-identical to version 1, and both versions load everywhere.

Crash safety: writing to a path goes through ``<path>.tmp`` with a
flush+fsync before an atomic ``os.replace``, followed by an fsync of the
parent directory so the rename itself survives power loss (see
:func:`repro.common.fsio.atomic_write`); a crash mid-dump can leave a
stale or absent snapshot at the final path but never a truncated
one.  Loading with ``strict=False`` tolerates a truncated *tail* anyway
(e.g. a snapshot taken through a bare stream, or torn storage): the
partial trailing record is counted and skipped, and warm restart degrades
to a partial warm cache instead of refusing to start.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterator, Optional, Tuple, Union

from repro.common.fsio import atomic_write

MAGIC = b"ZXSNAP01"
MAGIC_V2 = b"ZXSNAP02"
_LENGTHS = struct.Struct(">II")
_LENGTHS_V2 = struct.Struct(">III")
#: Sanity bound: no key or value above 256 MiB.
_MAX_FIELD = 256 * 1024 * 1024

PathLike = Union[str, Path]


class SnapshotError(Exception):
    """Raised for malformed snapshot files."""


def iter_cache_items(cache) -> Iterator[Tuple[bytes, bytes]]:
    """Items of a SimpleKVCache, ZExpander, sharded cache, or bare zone.

    For a two-zone cache the Z-zone is written first and the N-zone
    last: loading replays the file in order, so the hot N-zone items are
    the most recent inserts and re-form the N-zone's contents instead of
    being demoted by later traffic.  Sharded caches provide their own
    ``items()`` with the same cold-first ordering across shards.

    Z-zone append regions need no special handling here: ``ZZone.items()``
    yields each block's staged entries *after* its container entries, so
    replaying the file in order lets the staged (newest) version of a key
    overwrite any stale compressed shadow.
    """
    zzone = getattr(cache, "zzone", None)
    if zzone is not None:
        yield from zzone.items()
    nzone = getattr(cache, "nzone", None)
    if nzone is not None:
        yield from nzone.items()
    if zzone is None and nzone is None:
        yield from cache.items()


def write_snapshot(
    cache, destination: Union[PathLike, BinaryIO], meta=None
) -> int:
    """Serialise ``cache``'s items; returns the item count written.

    ``meta`` (anything with ``flags_of(key) -> int``, e.g. the server's
    :class:`~repro.server.meta.ItemMetaStore`) switches the file to the
    version-2 format so per-item client flags survive the round trip;
    without it the output is a byte-identical version-1 snapshot.

    Writing to a *path* is crash-safe: the bytes land in
    ``<destination>.tmp`` first, are flushed and fsynced, and only then
    atomically renamed over the final path, after which the parent
    directory is fsynced so the rename is durable too.  A crash at any
    point leaves either the previous snapshot or none — never a
    truncated file at the final path.  Writing to an already-open stream
    is left to the caller.
    """
    if hasattr(destination, "write"):
        return _write_stream(cache, destination, meta)
    return atomic_write(
        destination, lambda stream: _write_stream(cache, stream, meta)
    )


def _write_stream(cache, stream: BinaryIO, meta=None) -> int:
    stream.write(MAGIC if meta is None else MAGIC_V2)
    count = 0
    for key, value in iter_cache_items(cache):
        if meta is None:
            stream.write(_LENGTHS.pack(len(key), len(value)))
        else:
            stream.write(
                _LENGTHS_V2.pack(len(key), len(value), meta.flags_of(key))
            )
        stream.write(key)
        stream.write(value)
        count += 1
    return count


class LoadResult(int):
    """Item count loaded, as an ``int``, plus recovery detail.

    Subclasses ``int`` so pre-existing callers comparing the return of
    :func:`load_snapshot` against a number keep working; new callers read
    ``loaded``, ``skipped``, and ``error`` for the recovery story.
    """

    loaded: int
    skipped: int
    error: Optional[str]

    def __new__(
        cls, loaded: int, skipped: int = 0, error: Optional[str] = None
    ) -> "LoadResult":
        self = super().__new__(cls, loaded)
        self.loaded = loaded
        self.skipped = skipped
        self.error = error
        return self

    @property
    def truncated(self) -> bool:
        return self.error is not None

    def __repr__(self) -> str:
        return (
            f"LoadResult(loaded={self.loaded}, skipped={self.skipped}, "
            f"error={self.error!r})"
        )


def read_snapshot(
    source: Union[PathLike, BinaryIO],
    strict: bool = True,
    damage: Optional[list] = None,
) -> Iterator[Tuple[bytes, bytes, int]]:
    """Yield (key, value, flags) triples from a snapshot; validates the format.

    Reads both format versions (version-1 files yield flags=0).  With
    ``strict=False`` a malformed *tail* (truncated header or body,
    implausible lengths) ends the iteration instead of raising, and its
    description is appended to ``damage`` when a list is given; a bad
    magic still raises — a file that never was a snapshot should not
    silently load as an empty one.
    """
    if hasattr(source, "read"):
        yield from _read_stream(source, strict, damage)
        return
    with open(source, "rb") as stream:
        yield from _read_stream(stream, strict, damage)


def _read_stream(
    stream: BinaryIO, strict: bool = True, damage: Optional[list] = None
) -> Iterator[Tuple[bytes, bytes, int]]:
    """Core reader; appends one error string to ``damage`` on a bad tail."""
    magic = stream.read(len(MAGIC))
    if magic not in (MAGIC, MAGIC_V2):
        raise SnapshotError(f"bad snapshot magic: {magic!r}")
    lengths = _LENGTHS if magic == MAGIC else _LENGTHS_V2

    def fail(message: str):
        if strict:
            raise SnapshotError(message)
        if damage is not None:
            damage.append(message)

    while True:
        header = stream.read(lengths.size)
        if not header:
            return
        if len(header) != lengths.size:
            fail("truncated item header")
            return
        flags = 0
        if lengths is _LENGTHS:
            key_len, value_len = lengths.unpack(header)
        else:
            key_len, value_len, flags = lengths.unpack(header)
        if key_len > _MAX_FIELD or value_len > _MAX_FIELD:
            fail(f"implausible field lengths {key_len}/{value_len}")
            return
        key = stream.read(key_len)
        value = stream.read(value_len)
        if len(key) != key_len or len(value) != value_len:
            fail("truncated item body")
            return
        yield key, value, flags


def load_snapshot(
    cache,
    source: Union[PathLike, BinaryIO],
    strict: bool = True,
    meta=None,
) -> LoadResult:
    """Re-insert a snapshot's items into ``cache``; returns the count.

    Items are SET in file order (cold Z-zone items first, hot N-zone
    items last) so a two-zone cache re-forms roughly the same hot/cold
    split it had at dump time.

    ``meta`` (anything with ``on_set(key, flags)``) receives each item's
    client flags — the server passes its sidecar here so a version-2
    snapshot restores flags alongside values.  Loading a version-1 file
    with a ``meta`` records flags=0 for every item.

    ``strict=False`` is the warm-restart recovery mode: a truncated tail
    stops the load instead of raising, the partial record is counted in
    the result's ``skipped``, and the cache comes up partially warm.  The
    return value is an ``int`` (items loaded) carrying ``loaded`` /
    ``skipped`` / ``error`` attributes.
    """
    damage: list = []
    count = 0
    for key, value, flags in read_snapshot(source, strict, damage):
        cache.set(key, value)
        if meta is not None:
            meta.on_set(key, flags)
        count += 1
    error = damage[0] if damage else None
    return LoadResult(count, skipped=1 if error else 0, error=error)
