"""N-zone implementations: the uncompressed, high-performance partition.

The paper's N-zone is "almost a plug-in of any existing KV cache system".
Two managers are provided:

* :class:`MemcachedZone` — a behavioural model of memcached 1.4.24: slab
  classes, per-class LRU queues, chained hash table, and byte-accurate
  metadata/fragmentation accounting (drives Figures 5–9).
* :class:`HPCacheZone` — a MemC3-style cache: 4-way optimistic cuckoo
  hashing with CLOCK replacement (drives Figures 10–16; the paper's
  "H-Cache").
"""

from repro.nzone.base import EvictedItem, NZone
from repro.nzone.cuckoo import CuckooTable
from repro.nzone.hpcache import HPCacheZone
from repro.nzone.memcached import MemcachedZone, SlabAllocator

__all__ = [
    "CuckooTable",
    "EvictedItem",
    "HPCacheZone",
    "MemcachedZone",
    "NZone",
    "SlabAllocator",
]
