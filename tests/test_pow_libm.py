"""The pow sites follow the C library's pow, not numpy's CPU dispatch.

``gen_power_series`` (t^-e) and ``PowerMask`` fields (u^(1/shape)) take their
values from libm ``pow``, as ``math.pow`` and float ``**`` do. Each case starts
a child under a process-local switch that changes numpy's SIMD targets or the
pow variant glibc picks, and compares both sites with ``math.pow``/``**``
references computed in that same child. This checks that the sites add no
dependence on the environment beyond libm's own; it does not check that the
bytes match another environment's.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

CHILD = """
import math
import numpy as np
from regulab.criticality import gen_power_series
from regulab.diffusion import PowerMask, gen_noise_field
from regulab.rng import SplitMix64

want = np.array([math.pow(t, -0.7) for t in range(1, 70_001)])
SplitMix64(12).shuffle(want)
assert gen_power_series(70_000, 0.7, 12).tobytes() == want.tobytes(), "t^-e"

want = np.array([u ** (1.0 / 0.4) for u in SplitMix64(5).floats(97 * 61).tolist()])
got = gen_noise_field(97, 61, PowerMask(0.4), seed=5).pixels
assert got.tobytes() == want.tobytes(), "u^(1/shape)"
"""


@pytest.mark.parametrize("switch", [
    # numpy's SIMD loops without AVX-512.
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    # glibc's pow without FMA: it rounds some t^-e 1 ulp apart from the default.
    {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4,-AVX512F,-AVX"},
], ids=["npy-no-avx512", "glibc-no-fma"])
def test_pow_sites_match_libm_pow_under_switch(switch):
    env = {**os.environ, **switch,
           "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        last = (probe.stderr.strip().splitlines() or ["no output"])[-1]
        pytest.skip(f"numpy does not start under {switch} on this host: {last}")
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
