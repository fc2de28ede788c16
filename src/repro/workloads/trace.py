"""Compact trace containers.

Benches replay traces of millions of requests against many cache
configurations.  An object per entry would cost ~200 B each, so
:class:`Trace` keeps three parallel arrays (op code, key id, value size).
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Dict, Iterator, Tuple

import numpy as np

#: Integer op codes used inside compact traces.
OP_GET = 0
OP_SET = 1
OP_DELETE = 2

#: Entries yielded when iterating a trace: (op_code, key_id, value_size).
TraceEntry = Tuple[int, int, int]


class Trace:
    """An immutable sequence of (op, key_id, value_size) entries."""

    def __init__(
        self,
        name: str,
        num_keys: int,
        ops: array,
        keys: array,
        sizes: array,
        key_prefix: bytes = b"key:",
    ) -> None:
        if not len(ops) == len(keys) == len(sizes):
            raise ValueError("ops/keys/sizes arrays must have equal length")
        self.name = name
        self.num_keys = num_keys
        self.key_prefix = key_prefix
        self._ops = ops
        self._keys = keys
        self._sizes = sizes

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[TraceEntry]:
        return zip(self._ops, self._keys, self._sizes)

    def __getitem__(self, index: int) -> TraceEntry:
        return (self._ops[index], self._keys[index], self._sizes[index])

    def key_bytes(self, key_id: int) -> bytes:
        """Render ``key_id`` as the wire key used by the data plane."""
        return self.key_prefix + b"%012d" % key_id

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy numpy views over (ops, key_ids, sizes).

        The replay hot loop iterates these instead of per-entry tuples;
        ``np.frombuffer`` shares the underlying ``array`` buffers, so the
        views cost nothing and stay in sync with the (immutable) trace.
        """
        ops = np.frombuffer(self._ops, dtype=np.int8)
        keys = np.frombuffer(self._keys, dtype=np.int64)
        sizes = np.frombuffer(self._sizes, dtype=np.dtype(f"i{self._sizes.itemsize}"))
        return ops, keys, sizes

    def access_counts(self) -> Counter:
        """Per-key count of GET and SET accesses (DELETEs excluded)."""
        counts: Counter = Counter()
        for op, key_id, _size in self:
            if op != OP_DELETE:
                counts[key_id] += 1
        return counts

    def key_sizes(self) -> Dict[int, int]:
        """Last-observed item size (key bytes + value bytes) per key."""
        sizes: Dict[int, int] = {}
        key_len = len(self.key_prefix) + 12
        for op, key_id, size in self:
            if op != OP_DELETE:
                sizes[key_id] = key_len + size
        return sizes


def concat_traces(name: str, traces: "List[Trace]") -> "Trace":
    """Concatenate traces over the same key space (phased workloads).

    Used by the Figure 15/16 adaptation experiment, whose workload is a
    uniform phase followed by a Zipfian phase.
    """
    if not traces:
        raise ValueError("need at least one trace")
    num_keys = traces[0].num_keys
    prefix = traces[0].key_prefix
    for trace in traces[1:]:
        if trace.num_keys != num_keys or trace.key_prefix != prefix:
            raise ValueError("traces must share key space and prefix")
    ops = array("b")
    keys = array("q")
    sizes = array("l")
    for trace in traces:
        ops.extend(trace._ops)
        keys.extend(trace._keys)
        sizes.extend(trace._sizes)
    return Trace(name, num_keys, ops, keys, sizes, prefix)


class TraceBuilder:
    """Incrementally assembles a :class:`Trace`."""

    def __init__(self, name: str, num_keys: int, key_prefix: bytes = b"key:") -> None:
        if num_keys < 1:
            raise ValueError(f"num_keys must be >= 1, got {num_keys}")
        self.name = name
        self.num_keys = num_keys
        self.key_prefix = key_prefix
        self._ops = array("b")
        self._keys = array("q")
        self._sizes = array("l")

    def add(self, op: int, key_id: int, size: int) -> None:
        """Append one entry; validates op code and key range."""
        if op not in (OP_GET, OP_SET, OP_DELETE):
            raise ValueError(f"unknown op code {op}")
        if not 0 <= key_id < self.num_keys:
            raise ValueError(f"key_id {key_id} out of [0, {self.num_keys})")
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        self._ops.append(op)
        self._keys.append(key_id)
        self._sizes.append(size)

    def __len__(self) -> int:
        return len(self._ops)

    def build(self) -> Trace:
        return Trace(
            self.name,
            self.num_keys,
            self._ops,
            self._keys,
            self._sizes,
            self.key_prefix,
        )
