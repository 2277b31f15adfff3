"""Run a regulab command in a fresh interpreter and read its peak memory."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# The child runs the command as ``regulab`` would, then prints its VmHWM.
_CHILD = """
import sys
from regulab.cli import dispatch
code = dispatch(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


def run_regulab(argv, cwd: Path, preexec_fn=None, timeout: float = 60) -> tuple[int, str, int]:
    """Exit code, stderr and peak resident set in KiB (VmHWM) of the command
    ``regulab *argv``, run in ``cwd`` by a fresh interpreter with one
    OpenBLAS thread. Skips the calling test where /proc/self/status, the
    source of VmHWM, is missing."""
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc/self/status to read VmHWM from")
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _CHILD, *map(str, argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=preexec_fn)
    assert proc.stdout, proc.stderr  # the child ended before it printed VmHWM
    return proc.returncode, proc.stderr, int(proc.stdout.split()[-1])
