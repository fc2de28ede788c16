"""Cache-replacement policy simulators.

Section 2 of the paper motivates zExpander by comparing miss ratios of
LRU, LIRS, ARC, and a hypothetical LRU-X policy across cache sizes
(Figure 2, Table 1).  LRU-X's overflow area is a :class:`RandomCache`,
and :class:`BeladyCache` is the offline-optimal bound that
``examples/miss_ratio_study.py`` compares against.  These are
byte-capacity cache simulators: they track which keys are resident and
how many bytes they occupy, but store no values.  Following the paper's
footnote, cache space used by the policies' own metadata (LRU pointers,
LIRS/ARC ghost entries) is *not* charged against the reported cache size.
"""

from repro.replacement.arc import ARCCache
from repro.replacement.base import EvictingCache
from repro.replacement.belady import BeladyCache
from repro.replacement.driver import MissStats, simulate_trace
from repro.replacement.lirs import LIRSCache
from repro.replacement.lru import LRUCache
from repro.replacement.lru_x import LRUXCache
from repro.replacement.random_policy import RandomCache

__all__ = [
    "ARCCache",
    "BeladyCache",
    "EvictingCache",
    "LIRSCache",
    "LRUCache",
    "LRUXCache",
    "MissStats",
    "RandomCache",
    "simulate_trace",
]
