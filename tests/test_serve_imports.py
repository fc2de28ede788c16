"""The serving process loads no experiment machinery.

``cli serve`` holds a cache, not a lab: numpy, the workload generators,
the analysis helpers, the performance simulator and the trace replayer
cost a served process megabytes of resident memory and are never
called there.  A package ``__init__`` that imports one of them eagerly
puts them back on the serve path, so this is checked in a fresh
interpreter.
"""

import json
import subprocess
import sys

SERVE_PATH = (
    "repro.experiments.cli",
    "repro.server",
    "repro.durability",
    "repro.replication",
)
NOT_SERVED = ("numpy", "repro.workloads", "repro.analysis", "repro.sim", "repro.core.replay")

_PROBE = """
import json, sys
for name in {modules!r}:
    __import__(name)
print(json.dumps(sorted(
    name for name in sys.modules
    if any(name == banned or name.startswith(banned + ".") for banned in {banned!r})
)))
"""


def test_serve_path_imports_no_experiment_machinery():
    child = subprocess.run(
        [sys.executable, "-c", _PROBE.format(modules=SERVE_PATH, banned=NOT_SERVED)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == []
