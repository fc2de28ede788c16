"""Cache images: dump and restore a cache's contents.

Production caches get restarted; losing 60 GB of hot data to a restart
means hours of elevated backend load while the cache re-warms.  This
module serialises a cache's resident items to a file and re-inserts them
on load — an extension beyond the paper, but the natural operational
companion to a system whose whole point is holding more data.

An image is a journal segment (:mod:`repro.common.framing`): the segment
magic, then one CRC-framed SET record per resident key, holding the
value a GET returns, cold items first, then the ``E`` record that seals
it with their count.  The ``--snapshot`` file, every
``checkpoint-*.snap`` and the bytes of a replication resync are all
written here and all read through :func:`read_image`, so a flipped bit
or a cut anywhere in an image ends the load at the last whole record — a
damaged item is missing, never wrong and never older — and is reported,
a cut between two records included.

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
    end_record,
    read_segment,
)
from repro.common.fsio import atomic_write
from repro.core.marker import is_marker_key

PathLike = Union[str, Path]


def iter_cache_items(cache) -> Iterator[Tuple[bytes, bytes]]:
    """Each resident key of a cache once, with the value a GET returns.

    ``cache`` is a SimpleKVCache, ZExpander, sharded cache or bare zone,
    or anything else with ``items()`` (the server's store: every key,
    expired or not).
    For two-zone caches every shard's Z-zone is walked first and the
    N-zones last: loading replays an image in order, so the hot N-zone
    items are the most recent inserts and re-form the N-zone's contents
    instead of being demoted by later traffic.

    A Z-zone copy the N-zone shadows (a stale version after a SET, a
    promoted item's original, both awaiting a postponed removal) is not
    an item: an image holding both versions could be cut between them
    and load the older.  ``ZZone.items()`` likewise yields a staged key
    once, with its staged value.
    """
    shards = getattr(cache, "shards", None) or (cache,)
    if not hasattr(shards[0], "nzone"):
        yield from cache.items()
        return
    for shard in shards:
        zzone = getattr(shard, "zzone", None)
        if zzone is not None:
            nzone = shard.nzone
            for key, value in zzone.items():
                if key not in nzone:
                    yield key, value
    for shard in shards:
        for key, value in shard.nzone.items():
            if not is_marker_key(key):  # a probe of the N-zone, not an item
                yield key, value


def write_snapshot(target, destination: Union[PathLike, BinaryIO]) -> int:
    """Serialise ``target``'s items and seal them; returns the item count
    written.

    The one place an image reads client flags.  A target that keeps them
    (the server's store) walks its items itself with ``walk()``, which
    also leaves out the expired ones; a bare cache keeps none, so its
    items carry flags 0.

    Writing to a *path* is crash-safe: the bytes land in
    ``<destination>.tmp`` first, are flushed and fsynced, and only then
    atomically renamed over the final path, after which the parent
    directory is fsynced so the rename is durable too.  A crash at any
    point leaves either the previous image or none — never a truncated
    file at the final path.  Writing to an already-open stream is left
    to the caller.
    """

    walk = getattr(target, "walk", None)
    if walk is not None:
        items = walk()
    else:
        items = ((key, value, 0) for key, value in iter_cache_items(target))

    def write(stream: BinaryIO) -> int:
        stream.write(SEGMENT_MAGIC)
        count = 0
        for key, value, flags in items:
            stream.write(encode_record(OP_SET, key, value, flags))
            count += 1
        stream.write(end_record(count))
        return count

    if hasattr(destination, "write"):
        return write(destination)
    return atomic_write(destination, write)


def read_image(source: Union[PathLike, BinaryIO], apply=None) -> SegmentScan:
    """Walk an image like any segment (:func:`read_segment`), and report
    one that is not sealed as damaged.

    The one place "is this image whole?" is decided, for warm restart,
    checkpoint recovery, the scrubber and the replica's resync alike:
    whole means ``clean``, and only an image that ends in its ``E``
    record, count matching, with nothing after it, is.  Its valid prefix
    is still applied and counted; an image written before images were
    sealed loads whole and is reported unsealed.
    """
    scan = read_segment(source, apply)
    if scan.clean and not scan.sealed:
        scan.error = "image not sealed: no end record after the last item"
    return scan


def load_snapshot(target, source: Union[PathLike, BinaryIO]) -> SegmentScan:
    """SET an image's items into ``target`` (a cache, or anything with its
    ``set``/``delete``: the server's store); returns the scan.

    Items are SET in file order (cold Z-zone items first, hot N-zone
    items last) so a two-zone cache re-forms roughly the same hot/cold
    split it had at dump time, each with the client flags it was
    written with.

    Damage never raises and never loads: the scan's ``records`` is the
    number of items applied, ``valid_bytes`` how far the image was whole
    (0: the bytes never were an image) and ``error`` the first damage
    hit (an unsealed image's included, :func:`read_image`), past which
    nothing was applied.  What to make of a partial image is the
    caller's call.
    """
    return read_image(source, partial(apply_record, target))
