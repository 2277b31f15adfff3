"""Golden output hashes: every CLI subcommand, pinned byte for byte.

Each case runs one command at a fixed seed and a reduced README size and
compares the sha256 of every data file it writes with
``tests/golden/hashes.json``. Manifests are excluded because they record
wall time. Unlike a same-process rerun, this catches a change that alters
output bytes consistently.

A change that is meant to alter output bytes re-pins them with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.

The ``avalanche-gen*``, ``-pfb``, ``-nfb``, ``-rank*`` and ``-smooth``
hashes and those of the power-mode ``diffuse`` cases hold for one libm
``pow`` variant, and the ``avalanche-threshold*`` ones for numpy's SIMD
``power`` on one set of CPU features.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regulab.cli import dispatch
from regulab.diffusion import pgm_bytes, synthetic_portrait

HASHES = Path(__file__).parent / "golden" / "hashes.json"

# Inputs the cases read, written into the case directory before the run.
ALIASED_PAIRS = "r_state,s_state\nr1,s1\nr2,s1\nr3,s2\nr4,s3\n"
ISOMORPHIC_PAIRS = "r_state,s_state\nr1,s1\nr2,s2\nr3,s3\n"

CASES = {
    "avalanche-gen": ["avalanche", "gen", "--n", "2000", "--e", "1.0", "--seed", "7"],
    # Longer than one shuffle block, with an exponent other than 1.
    "avalanche-gen-70k": ["avalanche", "gen", "--n", "70000", "--e", "0.7", "--seed", "12"],
    "avalanche-pfb": ["avalanche", "pfb", "--n", "2000", "--e", "1.5", "--seed", "7"],
    "avalanche-nfb": ["avalanche", "nfb", "--n", "2000", "--e", "0.5", "--seed", "7"],
    "avalanche-rank": ["avalanche", "rank", "--n", "2000", "--seed", "7"],
    "avalanche-rank-asc": ["avalanche", "rank", "--n", "2000", "--ascending", "--seed", "8"],
    "avalanche-smooth": ["avalanche", "smooth", "--n", "2000", "--factor", "100", "--seed", "7"],
    "avalanche-bursts": ["avalanche", "bursts", "--n", "1001", "--interval-min", "4",
                         "--interval-max", "10", "--seed", "7"],
    # The first gap is longer than the series: no release at all.
    "avalanche-bursts-none": ["avalanche", "bursts", "--n", "3", "--interval-min", "10",
                              "--interval-max", "20", "--seed", "7"],
    # A one-value range: a release on every tick, every draw accepted.
    "avalanche-bursts-every": ["avalanche", "bursts", "--n", "5000", "--interval-min", "1",
                               "--interval-max", "1", "--seed", "7"],
    # About 35,000 short gaps.
    "avalanche-bursts-70k": ["avalanche", "bursts", "--n", "70000", "--interval-min", "1",
                             "--interval-max", "3", "--seed", "12"],
    # 70,000 gaps of one tick: more gaps than one draw block.
    "avalanche-bursts-every-70k": ["avalanche", "bursts", "--n", "70000", "--interval-min",
                                   "1", "--interval-max", "1", "--seed", "12"],
    # The smallest series that is shuffled at all.
    "avalanche-gen-2": ["avalanche", "gen", "--n", "2", "--seed", "7"],
    # Just below MAX_EXPONENT: values fall from 1 to about 6.4e-23.
    "avalanche-gen-e-near-max": ["avalanche", "gen", "--n", "5000", "--e", "5.999999",
                                 "--seed", "1"],
    "avalanche-threshold": ["avalanche", "threshold", "--n", "2000", "--e-model", "0.1",
                            "--seed", "0"],
    # e_model 50: most values carry three-digit exponents (e-166).
    "avalanche-threshold-e50": ["avalanche", "threshold", "--n", "2000", "--e-model", "50",
                                "--seed", "0"],
    "pid": ["pid", "--kp", "1", "--ti", "1", "--dt", "0.01", "--steps", "2000",
            "--disturbance", "-0.5", "--seed", "0"],
    # Integral term disabled, derivative term on.
    "pid-derivative": ["pid", "--kp", "1", "--ti", "0", "--td", "0.05", "--dt", "0.01",
                       "--steps", "2000", "--disturbance", "-0.5", "--seed", "0"],
    # The cases below settle: from some row on, every row repeats the state
    # exactly (row 6305 here).
    "pid-settles": ["pid", "--kp", "1", "--ti", "1", "--dt", "0.01", "--steps", "20000",
                    "--disturbance", "-0.5", "--seed", "0"],
    # P only, no disturbance: repeats from row 3254.
    "pid-p-only-settles": ["pid", "--kp", "1", "--steps", "10000", "--seed", "0"],
    # Integral term disabled, derivative term on: repeats from row 3421.
    "pid-derivative-settles": ["pid", "--kp", "1", "--ti", "0", "--td", "0.05", "--steps",
                               "20000", "--disturbance", "-0.5", "--seed", "0"],
    # All three terms: repeats from row 6759.
    "pid-three-term-settles": ["pid", "--kp", "1", "--ti", "1", "--td", "0.05", "--steps",
                               "20000", "--disturbance", "-0.5", "--seed", "0"],
    # Every value is a zero. x is -0 in rows 0 and 1 and +0 from row 2 on, and u
    # is -0 in row 0 only: rows 0 and 1 differ, and so do rows 1 and 2.
    "pid-signed-zero": ["pid", "--kp", "-1", "--td", "0.05", "--setpoint", "0", "--x0", "-0",
                        "--disturbance", "-0", "--steps", "10000", "--seed", "0"],
    "diffuse-power": ["diffuse", "--mode", "power", "--seed", "5"],
    # Shape 5e-324 makes 1/shape infinite (u^inf); 1e300 makes it about 1e-300.
    "diffuse-power-extreme-shapes": ["diffuse", "--mode", "power", "--levels",
                                     "5e-324,1e-300,0.01,1,1e300", "--seed", "3"],
    "diffuse-uniform-cumulative": ["diffuse", "--mode", "uniform", "--cumulative",
                                   "--seed", "6"],
    # One level: one image and a one-row stats table.
    "diffuse-one-level": ["diffuse", "--levels", "0.5", "--seed", "5"],
    "diffuse-input-levels": ["diffuse", "--input", "face.pgm", "--mode", "power",
                             "--levels", "0.9,0.05", "--alpha", "0.5", "--seed", "9"],
    "lur": ["lur", "run", "--phases", "0:30,90:30,0:30", "--seed", "3"],
    # No noise: the reach learner draws nothing and adds no kick.
    "lur-noise0": ["lur", "run", "--phases", "0:30,90:30,0:30", "--noise", "0", "--seed", "3"],
    # Phases of uneven length, one of a single trial.
    "lur-uneven": ["lur", "run", "--phases", "0:7,45:1,0:12", "--seed", "2"],
    # One phase: no interference or savings, a null reason in the manifest.
    "lur-one-phase": ["lur", "run", "--phases", "30:5", "--seed", "2"],
    # Phases longer than one 34-trial kick block and not multiples of it.
    "lur-long-phases": ["lur", "run", "--phases", "0:100,90:37,0:129", "--noise", "0.3",
                        "--seed", "5"],
    # Phases of exactly one kick block, one block and a trial, and two blocks.
    "lur-block-edges": ["lur", "run", "--phases", "0:34,90:35,0:68", "--noise", "0.05",
                        "--seed", "1"],
    "vehicle": ["vehicle", "run", "--steps", "500", "--seed", "4"],
    # Radius 0 never parks. Only the sensors leave the triangle: the body is
    # clamped on none of the 2000 steps.
    "vehicle-edge": ["vehicle", "run", "--steps", "2000", "--goal-radius", "0", "--seed", "4"],
    # Coarse steps and a steep turn: the body leaves the triangle and is
    # clamped back onto its boundary on 283 of its 300 steps.
    "vehicle-clamped": ["vehicle", "run", "--steps", "300", "--goal-radius", "0", "--dt", "0.3",
                        "--speed-gain", "1", "--turn-gain", "40", "--sensor-offset", "0.3",
                        "--seed", "4"],
    "demo-gd": ["demo", "gd", "--lr", "0.5", "--iters", "32", "--seed", "0"],
    # Step size 1 lands on the target at once: every later error is exactly 0.
    "demo-gd-exact": ["demo", "gd", "--lr", "1", "--iters", "3", "--seed", "0"],
    # Step size 1.9: the iterates change sign every step.
    "demo-gd-oscillating": ["demo", "gd", "--lr", "1.9", "--iters", "200", "--seed", "0"],
    # Target, start and every iterate are zeros of either sign.
    "demo-gd-signed-zero": ["demo", "gd", "--tx", "0", "--ty=-0", "--x0=-0", "--y0", "0",
                            "--lr", "1", "--iters", "3", "--seed", "0"],
    # The first gradient is -1.1e308 and the first step lands near 1.55e308.
    "demo-gd-near-overflow": ["demo", "gd", "--tx", "1e308", "--x0=-1e307", "--lr", "1.5",
                              "--iters", "50", "--seed", "0"],
    # A target of subnormals: the iterates end on them.
    "demo-gd-subnormal-target": ["demo", "gd", "--tx", "5e-324", "--ty=-5e-324", "--lr", "0.3",
                                 "--iters", "100", "--seed", "0"],
    "demo-q": ["demo", "q", "--grid", "3x3", "--episodes", "300", "--seed", "11"],
    "demo-q-8x8": ["demo", "q", "--grid", "8x8", "--episodes", "2000", "--seed", "11"],
    # The only cell is the goal: a policy of no cells, a header-only table.
    "demo-q-1x1": ["demo", "q", "--grid", "1x1", "--episodes", "5", "--seed", "11"],
    "relation-feedforward": ["relation", "--mode", "feedforward", "--ticks", "32", "--seed", "0"],
    "relation-closed": ["relation", "--mode", "closed", "--ticks", "64", "--seed", "0"],
    # Longer than one chunk of csvtext rows, in both modes.
    "relation-feedforward-5000": ["relation", "--mode", "feedforward", "--ticks", "5000",
                                  "--seed", "0"],
    "relation-closed-5000": ["relation", "--mode", "closed", "--ticks", "5000", "--seed", "0"],
    "variety-aliased": ["variety", "--pairs", "aliased.csv", "--seed", "0"],
    "variety-isomorphic": ["variety", "--pairs", "isomorphic.csv", "--seed", "0"],
}


def run_case(name: str, directory: Path) -> dict[str, str]:
    """Run one case in ``directory``; return {file name: sha256} of its data
    outputs, manifests excluded."""
    argv = list(CASES[name])
    if "--pairs" in argv:
        (directory / "aliased.csv").write_text(ALIASED_PAIRS, encoding="utf-8")
        (directory / "isomorphic.csv").write_text(ISOMORPHIC_PAIRS, encoding="utf-8")
    if "--input" in argv:
        (directory / "face.pgm").write_bytes(pgm_bytes(synthetic_portrait(40, 30)))
    out = "out.pgm" if argv[0] == "diffuse" else "out.csv"
    inputs = set(directory.iterdir())
    # Input paths appear in the CSV params line, so they are given relative
    # to the case directory.
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        code = dispatch([*argv, "--output", out])
    finally:
        os.chdir(cwd)
    if code != 0:
        raise AssertionError(f"{name}: exit code {code}")
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(set(directory.iterdir()) - inputs)
        if not p.name.endswith(".manifest.jsonl")
    }


def pinned() -> dict:
    return json.loads(HASHES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path):
    hashes = run_case(name, tmp_path)
    assert hashes == pinned()[name]
    manifest, = tmp_path.glob("*.manifest.jsonl")
    assert set(json.loads(manifest.read_text())["outputs"]) == set(hashes)


def test_every_case_is_pinned():
    assert sorted(pinned()) == sorted(CASES)


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_reach_and_arena_cases_hold_on_other_openblas_kernels(core):
    # The reach learner and the vehicle call no BLAS or LAPACK kernel, so
    # OpenBLAS's choice of kernels for the CPU cannot change their bytes.
    # The child selects only test_golden_outputs, never this test.
    env = {**os.environ, "OPENBLAS_CORETYPE": core}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           f"{__file__}::test_golden_outputs", "-k", "lur or vehicle"],
                          cwd=Path(__file__).parents[1], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:]
    cases = sum("lur" in name or "vehicle" in name for name in CASES)  # what -k selects
    assert proc.stdout.splitlines()[-1].startswith(f"{cases} passed"), proc.stdout


@pytest.mark.parametrize("switch, differ", [
    # numpy's SIMD power in threshold_model.
    ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
     ["avalanche-threshold", "avalanche-threshold-e50"]),
    # glibc's non-FMA pow, 1 ulp apart from the FMA one on some t^-e.
    ({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4,-AVX512F,-AVX"},
     ["avalanche-gen-70k", "avalanche-gen-e-near-max"]),
], ids=["npy-no-avx512", "glibc-no-fma"])
def test_only_the_known_cases_differ_under_switch(switch, differ):
    # The named cases are deselected, not expected to fail: on a host where
    # the switch changes nothing, they pass.
    env = {**os.environ, **switch}
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        last = (probe.stderr.strip().splitlines() or ["no output"])[-1]
        pytest.skip(f"numpy does not start under {switch} on this host: {last}")
    root = Path(__file__).parents[1]
    test = f"{Path(__file__).relative_to(root).as_posix()}::test_golden_outputs"
    deselect = [arg for name in differ for arg in ("--deselect", f"{test}[{name}]")]
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test,
                           *deselect], cwd=root, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert proc.stdout.splitlines()[-1].startswith(
        f"{len(CASES) - len(differ)} passed, {len(differ)} deselected"), proc.stdout


if __name__ == "__main__":
    import tempfile

    hashes = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            hashes[case] = run_case(case, Path(tmp))
    HASHES.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(hashes)} cases in {HASHES}", file=sys.stderr)
