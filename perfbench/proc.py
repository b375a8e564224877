"""Child processes with their own resource usage.

Every op runs in a fresh interpreter.  Peak RSS and CPU time come from the
child's own rusage (``os.wait4``), never from machine-wide counters.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A child still running after this long is killed and its op counted failed,
# so a run always ends within the harness time limit.
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class ChildResult:
    wall_s: float
    returncode: int
    maxrss_mib: float
    cpu_s: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], log_path: Path | None = None) -> ChildResult:
    """Run argv from the repository root and wait for it to end."""
    with open(log_path if log_path is not None else os.devnull, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(wall_s=wall, returncode=proc.returncode,
                       maxrss_mib=usage.ru_maxrss / 1024.0,
                       cpu_s=usage.ru_utime + usage.ru_stime)
