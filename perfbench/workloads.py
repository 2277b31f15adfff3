"""Workloads: inputs generated from the benchmark seed, CLI jobs, output checks.

Every input file is generated with ``numpy.random.default_rng(seed)``, never
with ``regulab.rng``, so a change to the project generator cannot change what
the program is given. The regulab ``--seed`` of each job is drawn from the same
numpy stream.

Each job writes into a directory of its own. Its check returns a list of
problems found in that directory; an empty list means the outputs are right.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 0
NAMES = ("series-1m", "diffuse-512", "loops", "readme")

Check = Callable[[Path], list]


@dataclass(frozen=True)
class Job:
    name: str  # unique in its workload; also the job's output directory
    argv: tuple
    outputs: tuple  # data files the job must write, relative to its directory
    check: Check


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _csv_lines(path: Path, header: str) -> tuple[list, list]:
    """Data lines of a CLI CSV after its ``# params:`` and header lines."""
    lines = path.read_text(encoding="utf-8").split("\n")
    problems = []
    if lines[-1] != "":
        problems.append(f"{path.name}: no final newline")
    lines = lines[:-1]
    if len(lines) < 2 or not lines[0].startswith("# params: "):
        return [], [f"{path.name}: missing '# params:' line"]
    if lines[1] != header:
        problems.append(f"{path.name}: header {lines[1]!r} != {header!r}")
    return lines[2:], problems


def _numeric(d: Path, name: str, header: str, rows: int) -> tuple:
    """(array of shape (rows, columns), problems) for an all-numeric CSV whose
    first column counts 0..rows-1."""
    lines, problems = _csv_lines(d / name, header)
    if len(lines) != rows:
        return None, problems + [f"{name}: {len(lines)} rows, expected {rows}"]
    try:
        arr = np.array(",".join(lines).split(","), dtype=float).reshape(rows, -1)
    except ValueError as exc:
        return None, problems + [f"{name}: {exc}"]
    if arr.shape[1] != header.count(",") + 1 or not np.all(np.isfinite(arr)):
        problems.append(f"{name}: wrong column count or non-finite values")
    elif not np.array_equal(arr[:, 0], np.arange(rows)):
        problems.append(f"{name}: first column is not 0..{rows - 1}")
    return arr, problems


def _row_count(header: str, rows: int, name: str) -> Check:
    def check(d: Path) -> list:
        lines, problems = _csv_lines(d / name, header)
        if len(lines) != rows:
            problems.append(f"{name}: {len(lines)} rows, expected {rows}")
        return problems

    return check


def _indexed(header: str, rows: int, name: str) -> Check:
    return lambda d: _numeric(d, name, header, rows)[1]


def _power_series(n: int, e: float, name: str) -> Check:
    """The sorted series equals {float(t) ** -e : t = 1..n} exactly."""

    def check(d: Path) -> list:
        arr, problems = _numeric(d, name, "tick,value", n)
        if not problems:
            expected = np.array([float(t) ** -e for t in range(n, 0, -1)])
            if not np.array_equal(np.sort(arr[:, 1]), expected):
                problems.append(f"{name}: values are not the multiset t^-{e}, t = 1..{n}")
        return problems

    return check


def _bursts(n: int, name: str) -> Check:
    def check(d: Path) -> list:
        arr, problems = _numeric(d, name, "tick,burst", n)
        if not problems and np.any(arr[:, 1] < 0):
            problems.append(f"{name}: negative burst")
        return problems

    return check


def _pgm(path: Path, w: int, h: int) -> list:
    data = path.read_bytes()
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    if not data.startswith(header):
        return [f"{path.name}: header {data[:16]!r} is not {header!r}"]
    if len(data) != len(header) + w * h:
        return [f"{path.name}: {len(data)} bytes, expected {len(header) + w * h}"]
    return []


def _diffuse(stem: str, steps: int, w: int, h: int) -> Check:
    stats = _indexed("step,level,mean,variance", steps, f"{stem}_stats.csv")

    def check(d: Path) -> list:
        problems = stats(d)
        for i in range(steps):
            problems += _pgm(d / f"{stem}_{i}.pgm", w, h)
        return problems

    return check


def _vehicle(steps: int, goal_radius: float, name: str) -> Check:
    """Rows run to the step that reached the goal, or to ``steps``."""

    def check(d: Path) -> list:
        manifest = json.loads((d / f"{name}.manifest.jsonl").read_text(encoding="utf-8"))
        reached = manifest["extra"]["reached_at_step"]
        rows = steps if reached is None else reached + 1
        arr, problems = _numeric(d, name, "step,x,y,c,m,y,k,dist", rows)
        if problems:
            return problems
        if reached is not None and not arr[-1, -1] <= goal_radius:
            problems.append(f"{name}: stopped at step {reached} outside the goal")
        return problems

    return check


def _roles(name: str) -> Check:
    def check(d: Path) -> list:
        lines = (d / name).read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        if len(records) != 5 or {"component", "role", "interpretive"} - set(records[0]):
            return [f"{name}: expected 5 role records"]
        return []

    return check


def _variety(name: str, tag: str, verdict: str) -> Check:
    def check(d: Path) -> list:
        lines, problems = _csv_lines(d / name, "class,variety_ratio,verdict,reason")
        fields = lines[0].split(",") if len(lines) == 1 else []
        if fields[:1] != [tag] or fields[2:3] != [verdict]:
            problems.append(f"{name}: got {lines}, expected class {tag}, verdict {verdict}")
        return problems

    return check


def _all(*checks: Check) -> Check:
    return lambda d: [p for c in checks for p in c(d)]


def check_job(job: Job, d: Path) -> list:
    """Problems with a finished job's directory: its manifest, its file set
    and the structure of each output."""
    if not d.is_dir():
        return ["no output directory"]
    manifest_name = Path(job.argv[-1]).name + ".manifest.jsonl"  # argv ends with --output
    present = sorted(p.name for p in d.iterdir())
    expected = sorted(job.outputs + (manifest_name,))
    if present != expected:
        return [f"files {present}, expected {expected}"]
    try:
        manifest = json.loads((d / manifest_name).read_text(encoding="utf-8"))
        listed = [Path(p) for p in manifest["outputs"]]
        if sorted(p.name for p in listed) != sorted(job.outputs) or any(p.parent != d for p in listed):
            return [f"{manifest_name}: lists {[str(p) for p in listed]}, expected {list(job.outputs)}"]
        return job.check(d)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _write_pgm(path: Path, rng: np.random.Generator, w: int, h: int) -> None:
    pixels = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())


def _write_aliased_mapping(path: Path, rng: np.random.Generator, n_s: int) -> None:
    """Each of ``n_s`` system states gets two regulator preimages."""
    s_of = rng.permutation(np.repeat(np.arange(n_s), 2))
    order = rng.permutation(2 * n_s)
    rows = [f"r{i:05d},s{s_of[i]:05d}" for i in order]
    path.write_text("r_state,s_state\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _write_isomorphic_mapping(path: Path, rng: np.random.Generator) -> None:
    n = int(rng.integers(3, 9))
    s_of = rng.permutation(n)
    rows = [f"r{i},s{s_of[i]}" for i in range(n)]
    path.write_text("r_state,s_state\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _seeds(rng: np.random.Generator, k: int) -> list:
    return [str(int(s)) for s in rng.integers(0, 2**31, size=k)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _job(out: Path, name: str, argv: list, outputs: tuple, check: Check, target: str = "") -> Job:
    """A job whose ``--output`` is ``target``, by default its first output."""
    path = out / name / (target or outputs[0])
    return Job(name, tuple(argv) + ("--output", str(path)), outputs, check)


def _series_1m(inp: Path, out: Path, rng: np.random.Generator) -> list:
    seed = _seeds(rng, 1)[0]
    n_gen, n_bursts = 1_000_000, 200_000
    return [
        _job(out, "gen", ["avalanche", "gen", "--n", str(n_gen), "--e", "1.0", "--seed", seed],
             ("gen.csv",), _power_series(n_gen, 1.0, "gen.csv")),
        _job(out, "bursts", ["avalanche", "bursts", "--n", str(n_bursts), "--seed", seed],
             ("bursts.csv",), _bursts(n_bursts, "bursts.csv")),
    ]


def _diffuse_outputs(name: str) -> tuple:
    return tuple(f"{name}_{i}.pgm" for i in range(5)) + (f"{name}_stats.csv",)


def _diffuse_512(inp: Path, out: Path, rng: np.random.Generator) -> list:
    image = inp / "image.pgm"
    _write_pgm(image, rng, 512, 512)
    seeds = _seeds(rng, 2)
    return [
        _job(out, mode, ["diffuse", "--input", str(image), "--mode", mode, "--seed", seed],
             _diffuse_outputs(mode), _diffuse(mode, 5, 512, 512), f"{mode}.pgm")
        for mode, seed in zip(("uniform", "power"), seeds)
    ]


def _loops(inp: Path, out: Path, rng: np.random.Generator) -> list:
    mapping = inp / "mapping.csv"
    _write_aliased_mapping(mapping, rng, 1000)
    s = _seeds(rng, 6)
    return [
        _job(out, "lur", ["lur", "run", "--seed", s[0]], ("lur.csv",),
             _row_count("phase,trial,error", 600, "lur.csv")),
        _job(out, "relation", ["relation", "--ticks", "20000", "--seed", s[1]], ("relation.csv",),
             _row_count("tick,s_state,r_state,output,error,phi,rho", 20000, "relation.csv")),
        _job(out, "pid", ["pid", "--kp", "1", "--ti", "1", "--steps", "100000",
                          "--disturbance", "-0.5", "--seed", s[2]],
             ("pid.csv",), _indexed("tick,x,u,e", 100000, "pid.csv")),
        _job(out, "vehicle", ["vehicle", "run", "--steps", "2000", "--goal-radius", "0",
                              "--seed", s[3]],
             ("vehicle.csv",), _vehicle(2000, 0.0, "vehicle.csv")),
        _job(out, "q", ["demo", "q", "--grid", "8x8", "--episodes", "2000", "--seed", s[4]],
             ("q.csv", "q_roles.jsonl"),
             _all(_row_count("x,y,greedy_action,value", 63, "q.csv"), _roles("q_roles.jsonl"))),
        _job(out, "variety", ["variety", "--pairs", str(mapping), "--seed", s[5]],
             ("variety.csv",), _variety("variety.csv", "Aliased", "Violated")),
    ]


def _readme(inp: Path, out: Path, rng: np.random.Generator) -> list:
    """The README command list at README sizes, without ``lur run``."""
    face, mapping = inp / "face.pgm", inp / "mapping.csv"
    _write_pgm(face, rng, 96, 96)
    _write_isomorphic_mapping(mapping, rng)
    jobs = []
    for k, s in enumerate(_seeds(rng, 8)):
        jobs += [
            _job(out, f"series{k}", ["avalanche", "gen", "--n", "10000", "--e", "1.0", "--seed", s],
                 ("series.csv",), _power_series(10000, 1.0, "series.csv")),
            _job(out, f"bursts{k}", ["avalanche", "bursts", "--n", "1001", "--interval-min", "4",
                                     "--interval-max", "10", "--seed", s],
                 ("bursts.csv",), _bursts(1001, "bursts.csv")),
            _job(out, f"threshold{k}", ["avalanche", "threshold", "--n", "10000",
                                        "--e-model", "0.1", "--seed", s],
                 ("threshold.csv",), _indexed("index,value", 10000, "threshold.csv")),
            _job(out, f"pid{k}", ["pid", "--kp", "1", "--ti", "1", "--dt", "0.01", "--steps",
                                  "10000", "--disturbance", "-0.5", "--seed", s],
                 ("pid.csv",), _indexed("tick,x,u,e", 10000, "pid.csv")),
            _job(out, f"noised{k}", ["diffuse", "--input", str(face), "--mode", "power",
                                     "--seed", s],
                 _diffuse_outputs(f"noised{k}"), _diffuse(f"noised{k}", 5, 96, 96),
                 f"noised{k}.pgm"),
            _job(out, f"vehicle{k}", ["vehicle", "run", "--steps", "10000", "--seed", s],
                 ("vehicle.csv",), _vehicle(10000, 0.05, "vehicle.csv")),
            _job(out, f"gd{k}", ["demo", "gd", "--lr", "0.5", "--iters", "32", "--seed", s],
                 ("gd.csv", "gd_roles.jsonl"),
                 _all(_indexed("iter,x0,x1,error", 33, "gd.csv"), _roles("gd_roles.jsonl"))),
            _job(out, f"q{k}", ["demo", "q", "--grid", "3x3", "--episodes", "2000", "--seed", s],
                 ("q.csv", "q_roles.jsonl"),
                 _all(_row_count("x,y,greedy_action,value", 8, "q.csv"), _roles("q_roles.jsonl"))),
            _job(out, f"toggle{k}", ["relation", "--mode", "feedforward", "--ticks", "32",
                                     "--seed", s],
                 ("toggle.csv",),
                 _row_count("tick,s_state,r_state,output,error,phi,rho", 32, "toggle.csv")),
            _job(out, f"verdict{k}", ["variety", "--pairs", str(mapping), "--seed", s],
                 ("verdict.csv",), _variety("verdict.csv", "Isomorphic", "Satisfied")),
        ]
    return jobs


_WORKLOADS = {"series-1m": _series_1m, "diffuse-512": _diffuse_512, "loops": _loops,
             "readme": _readme}


def build(name: str, seed: int, work: Path) -> list:
    """Write the workload's inputs under ``work/in`` and return its jobs,
    whose outputs go under ``work/out``."""
    inp = work / "in"
    inp.mkdir(parents=True, exist_ok=True)
    return _WORKLOADS[name](inp, work / "out", np.random.default_rng(seed))
