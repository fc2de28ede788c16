"""Crash-safe filesystem primitives shared by snapshot and journal code.

The tmp + flush + fsync + ``os.replace`` dance appears anywhere a file
must transition atomically from "absent or previous version" to "new
version, fully written" — snapshots and journal checkpoints.
:func:`atomic_write` is that dance, done once, correctly, including the
step that is easy to forget: fsyncing the *parent directory* after the
rename, without which the rename itself may not survive a power cut
(the new directory entry lives in the directory's own blocks).
"""

from __future__ import annotations

import os
from typing import BinaryIO, Callable, TypeVar, Union

T = TypeVar("T")

PathLike = Union[str, "os.PathLike[str]"]


def fsync_directory(path: PathLike) -> bool:
    """fsync a directory so renames/creates inside it are durable.

    Returns False (instead of raising) on platforms or filesystems that
    refuse to open or fsync directories — durability degrades to "what
    the OS gives you", which is the pre-existing behaviour everywhere.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return False
    try:
        os.fsync(fd)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def atomic_write(
    destination: PathLike,
    writer: Callable[[BinaryIO], T],
) -> T:
    """Write a file atomically: tmp + fsync + ``os.replace`` + dir fsync.

    ``writer`` receives the open binary stream for ``<destination>.tmp``
    and its return value is passed through.  On any failure the tmp file
    is unlinked and the final path is untouched; on success the final
    path holds the complete new bytes and the rename itself has been
    pushed to stable storage.
    """
    final = os.fspath(destination)
    tmp = final + ".tmp"
    try:
        with open(tmp, "wb") as stream:
            result = writer(stream)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, final)
    except BaseException:
        # Best-effort cleanup; the final path was never touched.
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_directory(os.path.dirname(final) or ".")
    return result
