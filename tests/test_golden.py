"""Golden output hashes: every CLI subcommand, pinned byte for byte.

Each case runs one command at a fixed seed and a reduced README size and
compares the sha256 of every data file it writes with
``tests/golden/hashes.json``. Manifests are excluded because they record
wall time. Unlike a same-process rerun, this catches a change that alters
output bytes consistently.

A change that is meant to alter output bytes re-pins them with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from regulab.cli import dispatch
from regulab.diffusion import synthetic_portrait, write_pgm

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
    "avalanche-threshold": ["avalanche", "threshold", "--n", "2000", "--e-model", "0.1",
                            "--seed", "0"],
    "pid": ["pid", "--kp", "1", "--ti", "1", "--dt", "0.01", "--steps", "2000",
            "--disturbance", "-0.5", "--seed", "0"],
    "diffuse-power": ["diffuse", "--mode", "power", "--seed", "5"],
    "diffuse-uniform-cumulative": ["diffuse", "--mode", "uniform", "--cumulative",
                                   "--seed", "6"],
    "diffuse-input-levels": ["diffuse", "--input", "face.pgm", "--mode", "power",
                             "--levels", "0.9,0.05", "--alpha", "0.5", "--seed", "9"],
    "lur": ["lur", "run", "--phases", "0:30,90:30,0:30", "--seed", "3"],
    "vehicle": ["vehicle", "run", "--steps", "500", "--seed", "4"],
    "demo-gd": ["demo", "gd", "--lr", "0.5", "--iters", "32", "--seed", "0"],
    "demo-q": ["demo", "q", "--grid", "3x3", "--episodes", "300", "--seed", "11"],
    "relation-feedforward": ["relation", "--mode", "feedforward", "--ticks", "32", "--seed", "0"],
    "relation-closed": ["relation", "--mode", "closed", "--ticks", "64", "--seed", "0"],
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
        write_pgm(synthetic_portrait(40, 30), directory / "face.pgm")
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
    assert run_case(name, tmp_path) == pinned()[name]


def test_every_case_is_pinned():
    assert sorted(pinned()) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    hashes = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            hashes[case] = run_case(case, Path(tmp))
    HASHES.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(hashes)} cases in {HASHES}", file=sys.stderr)
