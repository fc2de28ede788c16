"""The serving process loads no experiment machinery and no OpenSSL.

``cli serve`` holds a cache, not a lab: numpy, the workload generators,
the analysis helpers, the performance simulator and the trace replayer
cost a served process megabytes of resident memory and are never
called there.  A package ``__init__`` that imports one of them eagerly
puts them back on the serve path, so this is checked in a fresh
interpreter.

Nor does the server speak TLS.  ``hashlib`` maps ``libcrypto`` through
``_hashlib``, and ``asyncio`` imports ``ssl`` unless the CLI entry has
blocked it, so a live child's mappings are checked as well.
"""

import json
import os
import signal
import subprocess
import sys
import threading

import pytest

SERVE_PATH = (
    "repro.experiments.cli",
    "repro.server",
    "repro.durability",
    "repro.replication",
)
# ``ssl`` is not listed: the probe imports the serve path without running
# the CLI entry, which is where ``ssl`` is blocked.
NOT_SERVED = (
    "numpy",
    "repro.workloads",
    "repro.analysis",
    "repro.sim",
    "repro.core.replay",
    "hashlib",
    "_hashlib",
)

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


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_serve_child_maps_no_openssl():
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(30, child.kill)  # bounds the reads below
    watchdog.start()
    try:
        for line in child.stdout:
            if line.startswith("serving"):
                break
        else:
            pytest.fail(f"serve child exited {child.wait()} before serving")
        with open(f"/proc/{child.pid}/maps") as maps:
            libraries = {line.split()[-1] for line in maps if "/" in line}
        assert not [lib for lib in libraries if "libssl" in lib or "libcrypto" in lib]
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=30) == 0
    finally:
        watchdog.cancel()
        child.kill()
        child.wait()
        child.stdout.close()


def test_cli_main_leaves_ssl_importable(capsys):
    """Blocking ``ssl`` is the program entry's business, not ``main()``'s:
    an in-process caller keeps a working ``ssl``."""
    from repro.experiments import cli

    assert cli.main(["list"]) == 0
    capsys.readouterr()
    import ssl  # ImportError if main() had blocked it

    assert ssl.SSLContext
