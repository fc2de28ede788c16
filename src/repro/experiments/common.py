"""Shared experiment plumbing.

The paper's experiments run over four workloads (ETC, APP, USR, YCSB) at
server scale (tens of GB, billions of requests).  Experiments here run the
same *shapes* at laptop scale: a :class:`Scale` pins the key-space and
request-count budget, and cache sizes are expressed as multiples of each
workload's base cache size — exactly the normalisation the paper itself
uses in Table 1 — so results are comparable across scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.workloads.trace import Trace

# The workload generators (and numpy under them) are imported by the
# functions that build traces, not here: ``cli`` reads :data:`BENCH_SCALE`
# for its defaults, and ``cli serve`` must not pay for a trace generator.

WORKLOAD_NAMES = ("ETC", "APP", "USR", "YCSB")


@dataclass(frozen=True)
class Scale:
    """Size of an experiment run.

    Replays need many accesses per key (the paper's traces span billions
    of requests) or compulsory first-access misses swamp the capacity
    misses under study; the defaults keep ~20 requests per key.
    """

    num_keys: int = 15_000
    num_requests: int = 300_000
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_keys < 1:
            raise ConfigurationError(f"num_keys must be >= 1, got {self.num_keys}")
        if self.num_requests < 1:
            raise ConfigurationError(
                f"num_requests must be >= 1, got {self.num_requests}"
            )


#: Default scale used by the committed bench outputs.
BENCH_SCALE = Scale()

_TRACE_CACHE: Dict[tuple, Trace] = {}


def build_trace(
    name: str,
    scale: Scale,
    get_fraction: Optional[float] = None,
    set_fraction: Optional[float] = None,
) -> Trace:
    """Build (and memoise) one of the four paper workloads at ``scale``.

    ``get_fraction``/``set_fraction`` override YCSB's request mix for the
    Figure 10–12 mix sweeps; Facebook traces always use their published
    mixes.
    """
    from repro.workloads.facebook import SPECS, generate_facebook_trace
    from repro.workloads.ycsb import YCSBConfig, generate_ycsb_trace

    key = (name, scale, get_fraction, set_fraction)
    cached = _TRACE_CACHE.get(key)
    if cached is not None:
        return cached
    if name == "YCSB":
        config = YCSBConfig(
            num_requests=scale.num_requests,
            num_keys=scale.num_keys,
            seed=scale.seed,
        )
        if get_fraction is not None:
            config.get_fraction = get_fraction
            config.set_fraction = (
                set_fraction if set_fraction is not None else 1.0 - get_fraction
            )
        trace = generate_ycsb_trace(config)
    elif name in SPECS:
        if get_fraction is not None:
            raise ValueError("mix overrides only apply to the YCSB workload")
        trace = generate_facebook_trace(
            SPECS[name],
            num_requests=scale.num_requests,
            num_keys=scale.num_keys,
            seed=scale.seed,
        )
    else:
        raise ConfigurationError(
            f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}"
        )
    _TRACE_CACHE[key] = trace
    return trace


def build_value_source(name: str, trace: Trace, seed: int = 42):
    """Value bytes for a workload's data-plane replay.

    YCSB values come straight from the Places corpus (their sizes defined
    the trace's sizes); Facebook-like traces tile corpus content to their
    recorded sizes.  §4.2: "the traces do not contain actual values, we
    use the data sets about Twitter's location records to emulate the
    values".
    """
    from repro.common.rng import derive_seed
    from repro.workloads.values import (
        PlacesValueGenerator,
        SizedValueSource,
        ValueSource,
    )

    if name == "YCSB":
        return ValueSource(PlacesValueGenerator(seed=derive_seed(seed, "values")))
    return SizedValueSource(
        trace, PlacesValueGenerator(seed=derive_seed(seed, f"{name}-values"))
    )


_BASE_CACHE: Dict[tuple, int] = {}


def base_size_of(name: str, scale: Scale) -> int:
    """Memoised base cache size (§2.1) of a workload at ``scale``."""
    from repro.analysis.base_cache import base_cache_size

    key = (name, scale)
    cached = _BASE_CACHE.get(key)
    if cached is None:
        cached = base_cache_size(build_trace(name, scale))
        _BASE_CACHE[key] = cached
    return cached
