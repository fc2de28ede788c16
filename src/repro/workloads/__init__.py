"""Workload generation: key popularity, value corpora, and trace synthesis.

Key popularity is uniform or Zipfian: the paper's workloads need no other
distribution.

The paper evaluates on three Facebook memcached traces (ETC, APP, USR), a
YCSB Zipfian(0.99) trace, and value corpora derived from Twitter data.  None
of those inputs are public, so this package synthesises statistically
matching equivalents — see DESIGN.md §2 for the substitution argument.
"""

from repro.workloads.calibration import calibrate_zipf_skew, coverage_fraction
from repro.workloads.facebook import (
    APP_SPEC,
    ETC_SPEC,
    USR_SPEC,
    FacebookTraceSpec,
    generate_facebook_trace,
)
from repro.workloads.sizes import (
    DiscreteMixtureSize,
    FixedSize,
    LogNormalSize,
    SizeSampler,
    UniformSize,
)
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, Trace, TraceBuilder
from repro.workloads.uniform import UniformGenerator
from repro.workloads.values import (
    PlacesValueGenerator,
    TweetValueGenerator,
    ValueSource,
)
from repro.workloads.ycsb import YCSBConfig, generate_ycsb_trace
from repro.workloads.zipfian import ZipfianGenerator

__all__ = [
    "APP_SPEC",
    "ETC_SPEC",
    "USR_SPEC",
    "DiscreteMixtureSize",
    "FacebookTraceSpec",
    "FixedSize",
    "LogNormalSize",
    "OP_DELETE",
    "OP_GET",
    "OP_SET",
    "PlacesValueGenerator",
    "SizeSampler",
    "Trace",
    "TraceBuilder",
    "TweetValueGenerator",
    "UniformGenerator",
    "UniformSize",
    "ValueSource",
    "YCSBConfig",
    "ZipfianGenerator",
    "calibrate_zipf_skew",
    "coverage_fraction",
    "generate_facebook_trace",
    "generate_ycsb_trace",
]
