"""What golden comparisons read of a registry.

- :func:`untimed` and :func:`untimed_summary`: the snapshot and the
  flat summary less the series that follow the wall clock
  (``registry.timed``), a pure function of the request sequence.
- :func:`to_prometheus`: the registry as Prometheus text, with registry
  names and HELP/TYPE lines; views are gauges, histograms cumulative
  ``le`` buckets.  It renders the golden exposition
  (``benchmarks/results/metrics_smoke.prom``).  The shipped Prometheus
  surface is ``cli stats --format prom``, which renders the ``stats``
  wire reply under wire names.
"""

from typing import List

#: The prefix of every name in the exposition.
NAMESPACE = "repro"

#: The keys ``summary()`` flattens one histogram into.
_FLAT = ("_count", "_sum", "_p50", "_p99")


def untimed(registry):
    """``registry.snapshot()`` less the ``timed`` series."""
    return {n: v for n, v in registry.snapshot().items() if n not in registry.timed}


def untimed_summary(registry):
    """``registry.summary()`` less the ``timed`` series."""
    timed = {name + suffix for name in registry.timed for suffix in ("",) + _FLAT}
    return {n: v for n, v in registry.summary().items() if n not in timed}


def to_prometheus(registry, include_timing: bool = True) -> str:
    """Prometheus-style text exposition (no labels, ``le`` excepted)."""
    lines: List[str] = []
    snap = registry.snapshot() if include_timing else untimed(registry)
    for name, value in snap.items():
        full = f"{NAMESPACE}_{name}"
        help_text, kind = _describe(registry, name)
        if help_text:
            lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} {kind}")
        if isinstance(value, dict):
            cumulative = 0
            for bound, count in zip(value["bounds"], value["counts"]):
                cumulative += count
                lines.append(f'{full}_bucket{{le="{_format(bound)}"}} {cumulative}')
            cumulative += value["counts"][-1]
            lines.append(f'{full}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{full}_sum {_format(value['sum'])}")
            lines.append(f"{full}_count {value['count']}")
        else:
            lines.append(f"{full} {_format(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _describe(registry, name):
    if registry.is_view(name):
        return registry._views[name][1], "gauge"
    instrument = registry._instruments[name]
    return instrument.help, instrument.kind


def _format(value) -> str:
    """Repr-stable number formatting (ints stay ints)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
