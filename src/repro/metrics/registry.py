"""Dependency-free metrics: counters, gauges, log-bucket histograms.

One :class:`MetricsRegistry` per process (or per server/replay) is the
single exposition surface for every counter the reproduction keeps —
cache-core ``*Stats`` dataclasses, admission-control tallies, serving
and replay timings.  Three design rules shape it:

* **Hot paths stay hot.**  The cache core mutates its existing plain
  dataclass counters; the registry *mounts* them as views read only at
  ``snapshot()`` time (:meth:`MetricsRegistry.mount`), so enabling
  metrics adds zero work per request on the data plane.  Only genuinely
  new measurements (latencies, payload sizes) are owned instruments.
* **No-op stand-in, no branches.**  A component built without a
  registry holds the shared :data:`NULL_INSTRUMENT`, whose
  ``inc``/``observe`` are empty methods; its call sites keep one
  attribute lookup and one no-op call.
* **Deterministic snapshots.**  Buckets are fixed and log-spaced, and
  the same request sequence yields an identical snapshot, less the
  series registered with ``timing=True`` (listed in ``timed``), which
  follow the wall clock.

Rendering: ``snapshot()`` is the plain data, ``summary()`` its flat
key/value form (the ``stats`` wire reply, which ``cli stats`` renders as
kv, JSON or Prometheus text).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence


def log_buckets(
    lo: float = 1e-6, hi: float = 10.0, per_decade: int = 5
) -> List[float]:
    """Log-spaced bucket upper bounds covering [``lo``, ``hi``].

    The defaults span 1 µs to 10 s — wide enough for both a Z-zone block
    decompression and a seconds-long fsync stall — at 5 buckets per decade
    (~58 % resolution), the classic Prometheus-style trade-off between
    fidelity and mergeable fixed cost.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo} hi={hi}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    decades = math.log10(hi / lo)
    count = int(round(decades * per_decade))
    # Powers of 10**(1/per_decade), snapped to repr-stable rounding so
    # every process derives bit-identical bounds from the same spec.
    return [round(lo * 10 ** (i / per_decade), 12) for i in range(count + 1)]


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "help", "_value")
    kind = "counter"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._value = 0

    def inc(self) -> None:
        self._value += 1

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "_value")
    kind = "gauge"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def inc(self) -> None:
        self._value += 1.0

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram over log-spaced bounds.

    ``observe`` is a bisect into the bounds plus two adds.
    ``percentile`` interpolates linearly inside the landing bucket
    (exact enough for p50/p99 reporting; the raw buckets are what gets
    exposed).
    """

    __slots__ = ("name", "help", "bounds", "counts", "_count", "_sum")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.bounds = list(bounds) if bounds is not None else log_buckets()
        if self.bounds != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        # One overflow bucket past the last bound (le="+Inf").
        self.counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self._count += 1
        self._sum += value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def percentile(self, q: float) -> float:
        """Value at percentile ``q`` (0–100); 0.0 when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self._count == 0:
            return 0.0
        rank = (q / 100.0) * self._count
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank and count:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.bounds[-1]
                )
                fraction = (rank - (cumulative - count)) / count
                return lower + (upper - lower) * fraction
        return self.bounds[-1]


class _NullInstrument:
    """Shared do-nothing stand-in for a component with no registry."""

    __slots__ = ()
    name = ""
    help = ""
    value = 0
    count = 0
    sum = 0.0

    def inc(self) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def percentile(self, q) -> float:
        return 0.0

    def __bool__(self) -> bool:
        return False


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Instrument factory + deterministic snapshot/exposition surface."""

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        #: name -> (callable, help); read lazily at snapshot time.
        self._views: Dict[str, tuple] = {}
        #: Instrument/view names whose values follow the wall clock; a
        #: byte-stable (golden) comparison leaves these out.
        self.timed: set = set()

    # -- instrument factories --------------------------------------------------

    def counter(self, name: str, help: str = ""):
        return self._register(Counter, name, help, False)

    def gauge(self, name: str, help: str = "", timing: bool = False):
        return self._register(Gauge, name, help, timing)

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: Optional[Sequence[float]] = None,
        timing: bool = False,
    ):
        return self._register(Histogram, name, help, timing, bounds)

    def _register(self, cls, name: str, help: str, timing: bool, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls(name, help, *args)
            if timing:
                self.timed.add(name)
        elif not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} already registered as {type(instrument).__name__}"
            )
        return instrument

    # -- views (lazy reads over existing state) --------------------------------

    def view(
        self,
        name: str,
        fn: Callable[[], float],
        help: str = "",
        timing: bool = False,
        replace: bool = False,
    ) -> None:
        """Expose ``fn()``'s value under ``name`` at snapshot time.

        ``replace=True`` rebinds an existing view (e.g. a second replay
        mounting its fresh stats object); otherwise duplicates raise.
        """
        if name in self._instruments:
            raise ValueError(f"metric {name!r} already registered")
        if name in self._views and not replace:
            raise ValueError(f"metric {name!r} already registered")
        self._views[name] = (fn, help)
        if timing:
            self.timed.add(name)

    def mount(self, prefix: str, obj, replace: bool = False) -> None:
        """Mount every numeric field of a stats dataclass as a view.

        The object stays the mutation site (its hot-path increments are
        untouched); the registry reads ``getattr(obj, field)`` lazily.
        """
        for field in vars(obj):
            if field.startswith("_"):
                continue
            value = getattr(obj, field)
            if not isinstance(value, (int, float)):
                continue
            self.view(
                f"{prefix}_{field}",
                (lambda o=obj, f=field: getattr(o, f)),
                help=f"{type(obj).__name__}.{field}",
                replace=replace,
            )

    # -- snapshot + rendering --------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Name-sorted plain-data snapshot.

        Counters/gauges/views map to numbers; histograms to
        ``{"count", "sum", "bounds", "counts"}``.  Less the :attr:`timed`
        series, every value is a pure function of the request sequence.
        """
        out: Dict[str, object] = {}
        for name in sorted(set(self._instruments) | set(self._views)):
            if name in self._views:
                out[name] = self._views[name][0]()
                continue
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[name] = {
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "bounds": list(instrument.bounds),
                    "counts": list(instrument.counts),
                }
            else:
                out[name] = instrument.value
        return out

    def is_view(self, name: str) -> bool:
        """Is ``name`` a mounted view (as opposed to an owned instrument)?"""
        return name in self._views

    def summary(self) -> Dict[str, object]:
        """Flat numeric mapping for ``stats``-style key/value exposition.

        Histograms flatten to ``_count``/``_sum``/``_p50``/``_p99``
        suffixes so every value is a single parseable number.
        """
        out: Dict[str, object] = {}
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                instrument = self._instruments[name]
                out[f"{name}_count"] = value["count"]
                out[f"{name}_sum"] = round(value["sum"], 9)
                out[f"{name}_p50"] = round(instrument.percentile(50.0), 9)
                out[f"{name}_p99"] = round(instrument.percentile(99.0), 9)
            else:
                out[name] = value
        return out
