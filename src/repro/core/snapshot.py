"""Cache images: dump and restore a cache's contents.

Production caches get restarted; losing 60 GB of hot data to a restart
means hours of elevated backend load while the cache re-warms.  This
module serialises a cache's resident items to a file and re-inserts them
on load — an extension beyond the paper, but the natural operational
companion to a system whose whole point is holding more data.

An image is a journal segment (:mod:`repro.common.framing`): the segment
magic, then one CRC-framed SET record per resident item, cold items
first.  The ``--snapshot`` file, every ``checkpoint-*.snap`` and the
bytes of a replication resync are all written here and all read by the
journal's one frame reader, decoder and applier, so a flipped bit or a
cut anywhere in an image ends the load at the last whole record — a
damaged item is missing, never wrong.

Crash safety: writing to a path goes through ``<path>.tmp`` with a
flush+fsync before an atomic ``os.replace``, followed by an fsync of the
parent directory so the rename itself survives power loss (see
:func:`repro.common.fsio.atomic_write`); a crash mid-dump can leave a
stale or absent image at the final path but never a truncated one.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import BinaryIO, Iterator, Tuple, Union

from repro.common.framing import (
    OP_SET,
    SEGMENT_MAGIC,
    SegmentScan,
    apply_record,
    encode_record,
    read_segment,
)
from repro.common.fsio import atomic_write

PathLike = Union[str, Path]


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
    :class:`~repro.server.meta.ItemMetaStore`) supplies each item's
    client flags; without it every record carries flags 0.

    Writing to a *path* is crash-safe: the bytes land in
    ``<destination>.tmp`` first, are flushed and fsynced, and only then
    atomically renamed over the final path, after which the parent
    directory is fsynced so the rename is durable too.  A crash at any
    point leaves either the previous image or none — never a truncated
    file at the final path.  Writing to an already-open stream is left
    to the caller.
    """
    flags_of = meta.flags_of if meta is not None else (lambda key: 0)

    def write(stream: BinaryIO) -> int:
        stream.write(SEGMENT_MAGIC)
        count = 0
        for key, value in iter_cache_items(cache):
            stream.write(encode_record(OP_SET, key, value, flags_of(key)))
            count += 1
        return count

    if hasattr(destination, "write"):
        return write(destination)
    return atomic_write(destination, write)


def load_snapshot(
    cache, source: Union[PathLike, BinaryIO], meta=None
) -> SegmentScan:
    """Re-insert an image's items into ``cache``; returns the scan.

    Items are SET in file order (cold Z-zone items first, hot N-zone
    items last) so a two-zone cache re-forms roughly the same hot/cold
    split it had at dump time.  ``meta`` (anything with ``on_set(key,
    flags)``) receives each item's client flags.

    Damage never raises and never loads: the scan's ``records`` is the
    number of items applied, ``valid_bytes`` how far the image was whole
    (0: the bytes never were an image) and ``error`` the first damage
    hit, past which nothing was applied.  What to make of a partial
    image is the caller's call.
    """
    return read_segment(source, partial(apply_record, cache, meta))
