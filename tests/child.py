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
{cap}
code = dispatch(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""

# Caps the child's address space at its size so far plus a headroom in bytes.
# numpy and OpenBLAS, which ``regulab.cli`` does not import, are mapped
# first, so the cap leaves the headroom to the run.
_CAP = """
import resource
import numpy
with open("/proc/self/status", encoding="ascii") as fh:
    size = 1024 * int(next(line.split()[1] for line in fh if line.startswith("VmSize:")))
resource.setrlimit(resource.RLIMIT_AS, (size + {headroom}, size + {headroom}))
"""


def run_regulab(argv, cwd: Path, headroom: int | None = None,
                timeout: float = 60) -> tuple[int, str, int]:
    """Exit code, stderr and peak resident set in KiB (VmHWM) of the command
    ``regulab *argv``, run in ``cwd`` by a fresh interpreter with one
    OpenBLAS thread. With ``headroom``, the child caps its address space
    (RLIMIT_AS) at its size once ``regulab.cli`` and numpy are imported
    plus ``headroom`` bytes. Skips the calling test where /proc/self/status, the
    source of VmHWM and VmSize, is missing."""
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc/self/status to read VmHWM from")
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
           "OPENBLAS_NUM_THREADS": "1"}
    cap = "" if headroom is None else _CAP.format(headroom=headroom)
    proc = subprocess.run([sys.executable, "-c", _CHILD.format(cap=cap), *map(str, argv)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    assert proc.stdout, proc.stderr  # the child ended before it printed VmHWM
    return proc.returncode, proc.stderr, int(proc.stdout.split()[-1])
