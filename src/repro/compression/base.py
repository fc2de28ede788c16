"""Compressor interface.

A codec turns a byte container into a :class:`Compressed` buffer and back.
``stored_size`` — the bytes charged to the cache's memory budget — is kept
separate from the physical payload so that modelled codecs (which keep the
original bytes but charge a calibrated ratio) share one interface with real
codecs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass


@dataclass(frozen=True)
class Compressed:
    """A compressed container.

    ``payload`` is whatever the codec needs to reconstruct the original
    bytes; ``stored_size`` is the number of bytes the container occupies in
    the cache's accounting.  For real codecs the two coincide.
    """

    # Written out, not ``dataclass(slots=True)``, which needs Python 3.10:
    # every Z-zone block holds one, and a ``__dict__`` costs it ~70 B.
    __slots__ = ("payload", "stored_size")

    payload: bytes
    stored_size: int

    def __post_init__(self) -> None:
        if self.stored_size < 0:
            raise ValueError("stored_size cannot be negative")


class Compressor(abc.ABC):
    """Abstract compression codec."""

    #: Short name used in reports and bench output.
    name: str = "abstract"

    @abc.abstractmethod
    def compress(self, data: bytes) -> Compressed:
        """Compress ``data`` into a :class:`Compressed` buffer."""

    @abc.abstractmethod
    def decompress(self, compressed: Compressed) -> bytes:
        """Recover the exact original bytes from ``compressed``."""
