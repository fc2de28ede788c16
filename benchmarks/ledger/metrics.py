"""Names, units, directions and bounds of everything the ledger reports.

Two vocabularies share this file.  The **ledger** (``run.py --out``,
``compare.py``) reports the ten end-to-end metrics of the issue, each only
on the workloads it applies to.  The **driver contract** (``run.py
--workload … --trace 0|1``, ``BENCHMARK.json``) needs every metric on every
workload, never zero, with a relative bound of at most 0.25 — so it
carries the five that every workload yields and that repeat, with
``miss_ratio`` turned into ``hit_ratio`` and the per-verb p50s folded into
``req_p50_us``; the rest stay in the ledger.
``BENCHMARK.json`` must agree with this file: ``run.py`` checks it on
every start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: How far the metric may worsen before compare.py says ``worse``:
    #: a share of the first file's value, or an absolute step.
    bound: float
    absolute: bool = False
    #: Best-of-rounds timing metric (can come out ``unresolved``)?
    timing: bool = True
    #: Workloads it applies to (None = all).
    workloads: Optional[Tuple[str, ...]] = None


LEDGER_END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("ops_s", "ops/s", "higher", 0.10),
    EndToEnd("get_p50_us", "us", "lower", 0.10),
    EndToEnd("get_p99_us", "us", "lower", 0.20),
    EndToEnd("set_p50_us", "us", "lower", 0.10, workloads=("etc_mix", "set_churn")),
    EndToEnd("set_p99_us", "us", "lower", 0.20, workloads=("etc_mix", "set_churn")),
    EndToEnd("burst_ops_s", "keys/s", "higher", 0.10, workloads=("cold_get",)),
    EndToEnd("miss_ratio", "ratio", "lower", 0.002, absolute=True, timing=False),
    EndToEnd("failed_share", "ratio", "lower", 0.0, absolute=True, timing=False),
    EndToEnd("server_rss_mb", "MiB", "lower", 0.10, timing=False),
    EndToEnd("setup_s", "s", "lower", 0.50, timing=False),
)

#: name -> (unit, better, bound) of the driver contract's end-to-end list.
#: The timing bounds are the contract's cap, 0.25, not the ledger's 0.10: a
#: contract run is one workload for 15 s, and a later one is compared with
#: runs made minutes or hours apart, with nothing interleaved.  On the box
#: this was built on the floor itself drifts — ten runs of one commit over
#: 16 minutes spread (IQR / median) 2-12 % on ``ops_s`` and the p50,
#: medians of batches an hour apart differed by up to 12 %, and one spell
#: (stub RTT 35 -> 78 us) moved ``hot_get``'s p50 by 24 %.  ``compare.py``
#: keeps 0.10 for runs interleaved on one box, where it was shown to hold.
#: ``get_p99_us`` is not here at all: its best round spread 8-30 % between
#: runs of one commit (a closed loop's tail is the box's scheduler), which
#: no bound under the cap can hold; it stays a ledger metric.
#: ``req_p50_us`` is the p50 round trip over every request of a round,
#: whatever its verb: GET on ``hot_get``/``cold_get`` (there it *is*
#: ``get_p50_us``), 85 % GET on ``etc_mix``, 90 % SET on ``set_churn`` — the
#: verb each workload exists for.  ``get_p50_us`` itself cannot be bounded on
#: ``set_churn``: a 0.25 s round holds ~85 GETs, and a GET there gets dearer
#: through the run (the cache is not pre-populated: misses turn into Z-zone
#: hits), so its best round is always one of the first few and two sets of
#: ten runs of one commit spread 29 % and 22 %.  By the issue's rule a timing
#: that cannot be made to agree leaves the bounded list; the ledger reports
#: ``get_p50_us`` and ``set_p50_us`` apart, from 3 s rounds.
#: ``hit_ratio`` = 1 - ``miss_ratio`` (the contract forbids a metric that
#: reads 0, and miss_ratio does on three workloads); its bound is relative
#: and has to sit above the spread between seeds (1.1 % on ``set_churn``),
#: so it is far looser than the ledger's same-seed +0.002.
CONTRACT_END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "ops_s": ("ops/s", "higher", 0.25),
    "req_p50_us": ("us", "lower", 0.25),
    "hit_ratio": ("ratio", "higher", 0.05),
    "server_rss_mb": ("MiB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}

#: Per-layer metrics of the traced run: name -> (unit, better, kind).
#: ``count`` metrics repeat exactly at one seed; ``loose`` ones are counts
#: that depend on wall time (fsync cadence) and may not.
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "server.protocol.parse_get_us": ("us", "lower", "time"),
    "server.protocol.parse_set_us": ("us", "lower", "time"),
    "server.protocol.encode_value_us": ("us", "lower", "time"),
    "server.protocol.frames": ("count", "lower", "count"),
    "server.protocol.bad_frames": ("count", "lower", "count"),
    "server.admission.admit_us": ("us", "lower", "time"),
    "server.admission.admitted": ("count", "higher", "count"),
    "server.admission.shed": ("count", "lower", "count"),
    "server.server.request_us": ("us", "lower", "time"),
    "server.server.stub_us": ("us", "lower", "time"),
    "server.server.self_us": ("us", "lower", "time"),
    "server.server.burst_request_us_per_key": ("us", "lower", "time"),
    "core.get_us": ("us", "lower", "time"),
    "core.set_us": ("us", "lower", "time"),
    "core.delete_us": ("us", "lower", "time"),
    "core.get_many_us_per_key": ("us", "lower", "time"),
    "core.self_us": ("us", "lower", "time"),
    "core.hits_nzone": ("count", "higher", "count"),
    "core.hits_zzone": ("count", "higher", "count"),
    "core.misses": ("count", "lower", "count"),
    "core.promotions": ("count", "lower", "count"),
    "core.demotions": ("count", "lower", "count"),
    "core.postponed_removals": ("count", "lower", "count"),
    "core.nzone_service_share": ("ratio", "higher", "count"),
    "nzone.get_us": ("us", "lower", "time"),
    "nzone.set_us": ("us", "lower", "time"),
    "nzone.delete_us": ("us", "lower", "time"),
    "nzone.calls": ("count", "lower", "count"),
    "nzone.evicted_per_set": ("ratio", "lower", "count"),
    "zzone.get_us": ("us", "lower", "time"),
    "zzone.get_batched_us": ("us", "lower", "time"),
    "zzone.put_us": ("us", "lower", "time"),
    "zzone.delete_us": ("us", "lower", "time"),
    "zzone.maybe_contains_us": ("us", "lower", "time"),
    "zzone.self_us": ("us", "lower", "time"),
    "zzone.decompressions": ("count", "lower", "count"),
    "zzone.compressions": ("count", "lower", "count"),
    "zzone.filter_skips": ("count", "higher", "count"),
    "zzone.false_positives": ("count", "lower", "count"),
    "zzone.container_decodes_saved": ("count", "higher", "count"),
    "zzone.container_cache_hits": ("count", "higher", "count"),
    "zzone.staged_puts": ("count", "higher", "count"),
    "zzone.splits": ("count", "lower", "count"),
    "zzone.sweep_visits": ("count", "lower", "count"),
    "zzone.evicted_items": ("count", "lower", "count"),
    "zzone.hits_per_decompression": ("ratio", "higher", "count"),
    "zzone.stored_bytes_per_user_byte": ("ratio", "lower", "count"),
    "compression.compress_us": ("us", "lower", "time"),
    "compression.decompress_us": ("us", "lower", "time"),
    "compression.compress_calls": ("count", "lower", "count"),
    "compression.decompress_calls": ("count", "lower", "count"),
    "compression.bytes_in": ("bytes", "lower", "count"),
    "compression.bytes_out": ("bytes", "lower", "count"),
    "durability.append_us": ("us", "lower", "time"),
    "durability.appends": ("count", "lower", "count"),
    "durability.journal_bytes_per_user_byte": ("ratio", "lower", "count"),
    "durability.fsyncs": ("count", "lower", "loose"),
    "durability.checkpoints": ("count", "lower", "count"),
    "durability.checkpoint_ms": ("ms", "lower", "time"),
    "trace.overhead_share": ("ratio", "lower", "time"),
    "trace.layer_sum_gap": ("ratio", "lower", "time"),
}

#: The traced-run check of the issue: on these workloads the layers, each
#: measured on its own, must add up to the request within this share.
LAYER_SUM_GAP_LIMIT = 0.10
LAYER_SUM_WORKLOADS = ("hot_get", "cold_get")


def applies(metric: EndToEnd, workload: str) -> bool:
    return metric.workloads is None or workload in metric.workloads
