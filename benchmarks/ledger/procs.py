"""Child servers for the ledger: spawn, learn the port, and always clean up.

Every child runs in its own process group and is SIGKILLed — with its
journal directory removed — when the :class:`Fleet` exits, whatever the
exit path (normal, exception, SIGINT, SIGTERM).  A crashed prototype once
left five ``cli serve`` children behind; ``Fleet.orphans()`` is the check
that this cannot happen again.
"""

from __future__ import annotations

import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
#: Run-time scratch (journal directories); inside the checkout, ignored by git.
SCRATCH_DIR = LEDGER_DIR / ".tmp"

#: Cache budget of every benchmarked server: small enough that 40,000
#: tweet-sized items are resident only because the Z-zone compresses.
CAPACITY = 4 * 1024 * 1024
SERVER_SEED = 42

_SERVING_RE = re.compile(rb"serving (?:memcached protocol|stub) on ([\d.]+):(\d+)")
START_TIMEOUT = 60.0


def serve_args(journal_dir: Optional[str]) -> List[str]:
    """``cli``'s arguments for the shipped server, every flag but these at
    its shipped default — so a later change of defaults shows up in the
    numbers.

    ``--read-timeout 3600``: the default 30 s closes connections that sit
    idle between interleaved rounds.
    """
    argv = [
        "serve",
        "--port", "0",
        "--capacity", str(CAPACITY),
        "--seed", str(SERVER_SEED),
        "--read-timeout", "3600",
    ]
    if journal_dir is not None:
        argv += ["--journal-dir", journal_dir, "--fsync", "interval"]
    return argv


def serve_argv(journal_dir: Optional[str]) -> List[str]:
    return [sys.executable, "-m", "repro.experiments.cli"] + serve_args(journal_dir)


def stub_argv() -> List[str]:
    return [sys.executable, str(LEDGER_DIR / "stub_server.py")]


def require_source() -> None:
    """Fail fast when the program under test is not in this checkout."""
    if not (SRC_DIR / "repro" / "experiments" / "cli.py").is_file():
        raise SystemExit(
            f"ledger: no program to measure — {SRC_DIR}/repro is missing"
        )


class Child:
    """One server subprocess in its own process group."""

    def __init__(self, argv: List[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        # One less thing that differs between two runs of one commit.
        env["PYTHONHASHSEED"] = "0"
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=env,
            cwd=str(REPO_ROOT),
            start_new_session=True,
        )
        self.pgid = self.proc.pid
        self.port: Optional[int] = None
        self._output = bytearray()

    def wait_for_port(self) -> int:
        """Block until the child prints its "serving ... on host:port" line."""
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            match = _SERVING_RE.search(self._output)
            if match:
                self.port = int(match.group(2))
                return self.port
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"server child silent for {START_TIMEOUT}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            data = os.read(fd, 65536)
            if not data:
                raise RuntimeError(
                    "server child exited before binding:\n"
                    + self._output.decode(errors="replace")
                )
            self._output.extend(data)

    def vm_hwm_mb(self) -> float:
        """Peak resident set of the child so far (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    def kill(self) -> None:
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def group_alive(self) -> bool:
        try:
            os.killpg(self.pgid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            pass
        return True


class Fleet:
    """Owns every child and temp directory of one run; a context manager."""

    def __init__(self) -> None:
        self.children: List[Child] = []
        self._dirs: List[str] = []
        self._old_handlers = {}

    def __enter__(self) -> "Fleet":
        def interrupt(signum, _frame):
            raise KeyboardInterrupt(f"signal {signum}")

        for signum in (signal.SIGINT, signal.SIGTERM):
            self._old_handlers[signum] = signal.signal(signum, interrupt)
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        for signum, handler in self._old_handlers.items():
            signal.signal(signum, handler)

    def journal_dir(self) -> str:
        SCRATCH_DIR.mkdir(exist_ok=True)
        path = tempfile.mkdtemp(prefix="journal-", dir=SCRATCH_DIR)
        self._dirs.append(path)
        return path

    def spawn(self, argv: List[str]) -> Child:
        child = Child(argv)
        self.children.append(child)
        child.wait_for_port()
        return child

    def close(self) -> None:
        for child in self.children:
            child.kill()  # idempotent: a child retired early is already reaped
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()
        try:
            SCRATCH_DIR.rmdir()
        except OSError:
            pass

    def orphans(self) -> List[int]:
        """Process groups of ours that still have a live member."""
        return [child.pgid for child in self.children if child.group_alive()]
