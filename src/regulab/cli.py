"""Batch command-line front end.

One experiment per invocation. Every run takes an explicit --seed (there is
no wall-clock fallback, so documented runs stay reproducible) and writes its
CSV/PGM outputs and a one-line JSON-lines manifest beside them as one atomic
set (temp files, renamed once all are written, the manifest last), so outputs
and manifest appear together or not at all. The manifest replaces any earlier
one and records the tool version, subcommand, resolved parameters, seed,
output files, RNG algorithm, and the wall time to the last output byte. The
CSV ``# params:`` line and the manifest are both derived from the parsed
flags. A command imports its own simulation family, with numpy, when it
runs, and no other: parsing, ``--help`` and every usage error load no numpy.
``diffuse`` writes each level to its temp file as soon as the level is
made, so it holds one level in memory rather than all of them.

A CSV holds the ``# params:`` line, a header, then one row per sample.
``regulab.csvtext`` writes the typed columns each handler gives: a float array
as ``format(v, ".17g")`` writes each value (17 digits, enough to read back the
same double), a ``range`` or integer array as ``str``, texts as they are.

Exit codes: 0 success, 2 usage or parameter error, 1 runtime error, each
error with a one-line reason on stderr. Every float flag must be a finite
number, every count flag a positive integer and ``--seed`` an integer in
[0, 2**64). A negative value may follow its flag after a space, as in
``--x0 -1e-3`` or ``--phases -30:20``; ``-inf`` or ``-nan`` after a space
is a value too, refused as non-finite. Flags and config keys are written in
full: ``--see`` is not ``--seed``. A count that sizes a run is bounded:
``relation --ticks``, ``vehicle run --steps`` and ``demo gd --iters`` at
10**6, ``pid --steps``, every ``avalanche --n`` and ``avalanche smooth
--factor`` at 10**7. nan, ±inf, 0, a negative count or a count over its
bound exits 2 before any file is written, as does a negative ``lur`` noise
or slow rate or ``vehicle`` goal radius, an empty ``--output``, ``--pairs``,
``--config``, ``--input`` or ``diffuse`` level list, or a ``lur`` schedule
or ``demo q`` grid or run over its budget. Running out of memory, or a
numpy that cannot be imported, exits 1.

Flags override a config file, which overrides built-in defaults. The file
is given as ``--config path`` or ``--config=path`` before the subcommand and
holds ``key=value`` lines (blank lines and ``#`` comments are skipped). A key
is a flag name of the subcommand, written with ``_`` or ``-``; any flag may
come from the file, ``seed``, ``output`` and ``pairs`` included. A switch such
as ``cumulative`` takes ``true`` (on) or ``false`` (off). A key the subcommand
does not accept, or a value its flag rejects, exits 2.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

from . import __version__

Files = Iterable[tuple[Path, Iterable[str | bytes]]]  # (path, chunks) pairs to write


class UsageError(ValueError):
    """Bad arguments or parameter preconditions; maps to exit code 2."""


def _atomic_write(files: Files) -> None:
    """Write each ``(path, chunks)`` of ``files`` (text as UTF-8) to a temp
    file ``.<name>.<random>.tmp`` beside its path, with the mode ``open(path,
    "wb")`` gives, then rename each temp over its path in order: a run's
    manifest, its last file, is renamed last. Files and chunks are written as
    they come, never joined, so no long series or whole set is held at once.
    A failure before the renames, a target that is a directory included,
    unlinks every temp, so the files appear together or not at all. Then the
    last file's old target is unlinked, so a failing ``os.replace`` leaves the
    files renamed before it beside no manifest, never beside one of another run."""
    temps: list[tuple[Path, Path]] = []
    try:
        for path, chunks in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps.append((tmp, path))
            with os.fdopen(fd, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        for _, path in temps:  # its rename would fail after the unlink below
            if path.is_dir():
                raise IsADirectoryError(f"output path is a directory: {path}")
        temps[-1][1].unlink(missing_ok=True)
        for tmp, path in temps:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in temps:
            tmp.unlink(missing_ok=True)
        raise


def _params_line(a: argparse.Namespace, **shown) -> str:
    """The ``# params:`` line: every flag of the run as ``name=value``,
    sorted by name. ``shown`` replaces or adds display values; a flag whose
    value is None is left out."""
    params = {k: v for k, v in vars(a).items() if k not in _NOT_PARAMS}
    params.update(shown)
    body = " ".join(f"{k}={v}" for k, v in sorted(params.items()) if v is not None)
    return f"# params: {body}\n"


def _csv(a: argparse.Namespace, header: str, *columns, **shown) -> Iterator[str | bytes]:
    """CSV text in chunks: the ``# params:`` line of ``a`` (with ``shown``),
    the header, then the rows ``csvtext.rows`` builds from the columns."""
    from . import csvtext  # on first use: importing the CLI loads no writer code

    yield _params_line(a, **shown) + header + "\n"
    yield from csvtext.rows(*columns)


def emit_manifest(a: argparse.Namespace, outputs: list[Path], wall_time_s: float,
                  extra: dict) -> tuple[Path, list[str]]:
    """The run's one-line JSON record as a ``(path, chunks)`` file beside its
    output. ``params`` holds every namespace entry but the handler, the config
    path and the output path, as strings, with ``seed`` as an int, so the
    subcommand words are there for a replay."""
    from .rng import RNG_ALGORITHM

    params = {k: str(v) for k, v in vars(a).items() if k not in ("func", "config", "output")}
    params["seed"] = a.seed
    record = {"version": __version__, "subcommand": a.subcommand, "params": params,
              "seed": a.seed, "outputs": [str(p) for p in outputs], "rng": RNG_ALGORITHM,
              "wall_time_s": wall_time_s, "extra": extra}
    return (a.output.with_suffix(a.output.suffix + ".manifest.jsonl"),
            [json.dumps(record, sort_keys=True, allow_nan=False) + "\n"])


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (files to write, manifest extras)
# ---------------------------------------------------------------------------


def _cmd_relation(a) -> tuple[Files, dict]:
    from . import relation as rel
    mode = rel.LoopMode.CLOSED if a.mode == "closed" else rel.LoopMode.FEEDFORWARD
    relation = rel.toggle_benchmark(mode=mode)
    stream = [("kick", "calm")] * a.ticks
    traj = rel.run_relation(relation, stream, a.ticks)
    table = itertools.chain([_params_line(a)], rel.trajectory_to_csv(traj))
    return [(a.output, table)], {"point_entropy_bits": rel.point_regulation_score(traj, bins=2)}


def _cmd_variety(a) -> tuple[Files, dict]:
    from . import variety as var
    mapping = var.load_mapping_csv(a.pairs)
    cls = var.classify_mapping(mapping)
    verdict = var.requisite_variety_check(mapping)
    row = (cls.tag.value, f"{cls.variety_ratio.numerator}/{cls.variety_ratio.denominator}",
           "Satisfied" if verdict.satisfied else "Violated", verdict.reason or "")
    return [(a.output, _csv(a, "class,variety_ratio,verdict,reason", *zip(row)))], {}


def _cmd_pid(a) -> tuple[Files, dict]:
    from . import pid as pidmod
    # --ti 0 disables the integral term; any other value reaches PidGains' check.
    gains = pidmod.PidGains(kp=a.kp, ti=math.inf if a.ti == 0 else a.ti, td=a.td)
    traj = pidmod.simulate_pid(gains, a.plant_gain, a.setpoint, a.x0, a.dt, a.steps,
                               disturbance=a.disturbance)
    table = _csv(a, "tick,x,u,e", traj.ticks, traj.x, traj.u, traj.e)
    return [(a.output, table)], {"final_error": float(traj.e[-1])}


_AVALANCHE_HEADERS = {"bursts": "tick,burst", "rank": "rank,value",
                      "threshold": "index,value", "smooth": "index,value"}


def _cmd_avalanche(a) -> tuple[Files, dict]:
    from . import criticality as crit
    from .rng import SplitMix64
    extras: dict = {}
    shown: dict = {}
    if a.action == "bursts":
        sched = crit.BurstSchedule(a.interval_min, a.interval_max)
        rng = SplitMix64(a.seed)
        moments = rng.floats(a.n)
        values, times = crit.accumulate_release(moments, sched, rng.next_u64())
        extras["release_count"] = len(times)
    elif a.action == "threshold":
        values, extras["crossing_index"] = crit.threshold_model(a.n, a.e_model)
    else:
        values = crit.gen_power_series(a.n, a.e, a.seed)
        if a.action in ("pfb", "nfb"):
            values = crit.pfb_map(values) if a.action == "pfb" else crit.nfb_map(values)
            shown["map"] = a.action
        elif a.action == "rank":
            values = crit.rank_order(values, descending=not a.ascending)
            shown.update(ascending=None, descending=not a.ascending)
        elif a.action == "smooth":
            values = crit.smooth_model(values, a.factor)
    header = _AVALANCHE_HEADERS.get(a.action, "tick,value")
    return [(a.output, _csv(a, header, range(len(values)), values, **shown))], extras


def _cmd_diffuse(a) -> tuple[Files, dict]:
    import numpy as np

    from . import diffusion as diff
    img = diff.synthetic_portrait() if a.input is None else diff.read_pgm(a.input)
    if a.levels is None:
        levels = diff.DEFAULT_UNIFORM_ALPHAS if a.mode == "uniform" else diff.DEFAULT_POWER_SHAPES
    else:
        try:
            levels = [float(x) for x in a.levels.split(",")]
        except ValueError:
            raise UsageError(f"levels must be a comma list of numbers, got {a.levels!r}") from None
    sched = (diff.uniform_schedule(levels) if a.mode == "uniform"
             else diff.power_schedule(levels, alpha=a.alpha))
    base = a.output
    stats = np.empty((2, len(levels)))  # the mean and variance of each level

    def files():
        # A plain loop and del hold one stage at a time (enumerate or zip keep the last).
        i = 0
        for stage in diff.run_schedule(img, sched, a.seed, cumulative=a.cumulative):
            stats[:, i] = diff.image_stats(stage)
            data = diff.pgm_bytes(stage)
            del stage
            yield base.with_name(f"{base.stem}_{i}{base.suffix or '.pgm'}"), [data]
            i += 1
        yield base.with_name(f"{base.stem}_stats.csv"), _csv(
            a, "step,level,mean,variance", range(i), np.array(levels, dtype=float), *stats,
            input=a.input or "synthetic",
            levels="default" if a.levels is None else ",".join(map(str, levels)))

    return files(), {}


def _cmd_lur(a) -> tuple[Files, dict]:
    import numpy as np

    from . import procedural as proc
    phases = []
    for chunk in a.phases.split(","):
        try:
            angle_s, trials_s = chunk.split(":")
            phases.append((float(angle_s), int(trials_s)))
        except ValueError:
            raise UsageError(f"phase must be ANGLE:TRIALS, got {chunk!r}") from None
    sched = proc.LurSchedule(tuple(phases))
    learner = proc.ReachLearner(rate=a.rate, slow_rate=a.slow_rate, fast_retention=a.retention)
    result = proc.run_lur(learner, sched, noise=a.noise, gain=a.gain, seed=a.seed)
    curves = result.phase_errors
    phase, trial = np.hstack([([p] * len(c), np.arange(len(c))) for p, c in enumerate(curves)])
    extras = {"interference": result.interference, "savings": result.savings}
    if result.savings is None:
        extras["null_reason"] = "interference needs >= 2 phases, savings needs >= 3"
    return [(a.output, _csv(a, "phase,trial,error", phase, trial, np.concatenate(curves)))], extras


def _cmd_vehicle(a) -> tuple[Files, dict]:
    import numpy as np

    from . import procedural as proc
    field_ = proc.equilateral_field()
    centroid = field_.vertices.mean(axis=0)
    target = proc.sample_cmyk(field_, field_.vertices[0])
    to_c = field_.vertices[0] - centroid
    vehicle = proc.Vehicle(
        position=centroid, heading=math.atan2(to_c[1], to_c[0]), sensor_offset=a.sensor_offset,
        speed_gain=a.speed_gain, turn_gain=a.turn_gain, target=target, goal_radius=a.goal_radius)
    columns = np.empty((7, a.steps))  # x, y, c, m, y, k, dist of each step
    reached = None
    for step in range(a.steps):
        vehicle = proc.vehicle_step(vehicle, field_, a.dt)
        color, dist = vehicle.color, vehicle.distance
        columns[:, step] = (*vehicle.position, color.c, color.m, color.y, color.k, dist)
        if dist <= a.goal_radius:
            reached = step
            break
    n = a.steps if reached is None else reached + 1
    return ([(a.output, _csv(a, "step,x,y,c,m,y,k,dist", range(n), *columns[:, :n]))],
            {"reached_at_step": reached})


def _cmd_demo(a) -> tuple[Files, dict]:
    import numpy as np

    from . import demos
    if a.which == "gd":
        traj, error, annotation = demos.gd_regulate((a.tx, a.ty), (a.x0, a.y0), a.lr, a.iters)
        table = _csv(a, "iter,x0,x1,error", range(len(traj)), *traj.T, error, tx=None, ty=None,
                     y0=None, target=f"{a.tx};{a.ty}", x0=f"{a.x0};{a.y0}")
    else:
        try:
            w, h = map(int, a.grid.split("x"))
        except ValueError:
            raise UsageError(f"grid must be WIDTHxHEIGHT, got {a.grid!r}") from None
        cfg = demos.QConfig(width=w, height=h, goal_cell=(w - 1, h - 1),
                            episodes=a.episodes, exploration=a.epsilon)
        policy, q, annotation = demos.q_regulate(cfg, a.seed)
        cells = sorted(policy)
        xy = np.array(cells, dtype=np.int64).reshape(-1, 2).T  # rows x and y
        name = [demos.ACTION_NAMES[policy[c]] for c in cells]
        table = _csv(a, "x,y,greedy_action,value", *xy, name, np.array([q[c].max() for c in cells]))
    roles_path = a.output.with_name(a.output.stem + "_roles.jsonl")
    lines = [json.dumps({"component": comp, "role": role, "interpretive": True},
                        sort_keys=True) for comp, role in sorted(annotation.assignments.items())]
    return [(a.output, table), (roles_path, ["\n".join(lines) + "\n"])], {}


# ---------------------------------------------------------------------------
# Parsing and dispatch
# ---------------------------------------------------------------------------


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8-sig").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"config line is not key=value: {raw!r}")
        values[key.strip()] = value.strip()
    return values


def finite_float(text: str) -> float:
    """argparse type of every float flag: a float that is not nan or ±inf."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def seed(text: str) -> int:
    """argparse type of --seed: an integer in [0, 2**64), one SplitMix64
    state, so no two spellings name the same stream."""
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**64), got {text!r}")
    return value


def file_path(text: str) -> str:
    """argparse type of --config, --pairs and --input: a file path, so not empty."""
    if not text:
        raise argparse.ArgumentTypeError("must be a file path, got ''")
    return text


def output_path(text: str) -> Path:
    """argparse type of --output: a file path, so not empty."""
    return Path(file_path(text))


def positive_int(text: str) -> int:
    """argparse type of a count flag with no bound of its own, an integer of at
    least 1: a burst gap costs no work, and ``QConfig`` budgets ``demo q``
    episodes together with the grid."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _count(limit: int) -> Callable[[str], int]:
    """argparse type of a count flag that sizes a run: an integer in [1, limit]."""
    def count(text: str) -> int:
        value = int(text)
        if not 1 <= value <= limit:
            raise argparse.ArgumentTypeError(f"must be an integer in [1, {limit}], got {text!r}")
        return value
    return count


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        # Flags are spelled in full: "--see" is not "--seed", nor "k" in a
        # config file "kp".
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # A word that starts with "-" and a digit, "-." and a digit, "-inf" or
        # "-nan" is a value: "--x0 -1e-3" and "--phases -30:20" as well as
        # "--kp -5", and "--x0 -inf" reaches the finite-number check.
        # argparse's own pattern takes only plain integers and decimals.
        self._negative_number_matcher = re.compile(r"(?i)^-(?:\.?\d|inf|nan)")

    def error(self, message: str):  # exit 2 with a one-line reason
        raise UsageError(message)


# Default of a flag every run needs. Not argparse's required=True: the value
# may come from the config file, so _parse checks for it after the merge.
_REQUIRED = object()

# Work budgets of the count flags that size a run, so a run too large for the
# host is refused before it starts. At its bound, on a 2-vCPU Xeon:
MAX_TICKS = 10**6  # relation: 2.3-2.9 s, 129 MB
MAX_PID_STEPS = 10**7  # 5-5.5 s, 261 MB
MAX_GD_ITERS = 10**6  # demo gd: 1.4 s, 55 MB
MAX_SERIES = 10**7  # avalanche --n, --factor: 2.3-8.1 s, 114-302 MB; bursts at gaps 1..1 344 MB
MAX_VEHICLE_STEPS = 10**6  # 20 s, 85 MB

_COMMON = (("seed", seed, _REQUIRED), ("output", output_path, _REQUIRED))
_SERIES = (("n", MAX_SERIES, 10_000), ("e", finite_float, 1.0))

# Subcommand path -> (handler, help, flags); a group's handler is instead the
# name its next word is stored under. A flag is (name, kind, default[, help]),
# kind an argparse type, a tuple of choices, bool for a switch or an int, the
# largest value of a count, and its dest the name with "_" for "-". Every leaf
# also takes the _COMMON flags.
_COMMANDS = {
    (): ("subcommand", None, (("config", file_path, None, "key=value defaults file"),)),
    ("relation",): (_cmd_relation, "toggle benchmark trajectory", (
        ("mode", ("closed", "feedforward"), "closed"), ("ticks", MAX_TICKS, 32))),
    ("variety",): (_cmd_variety, "classify a state mapping CSV", (
        ("pairs", file_path, _REQUIRED, "CSV with header r_state,s_state"),)),
    ("pid",): (_cmd_pid, "closed-loop setpoint tracking", (
        ("kp", finite_float, 1.0), ("ti", finite_float, 0.0, "integral time, 0 disables"),
        ("td", finite_float, 0.0), ("dt", finite_float, 0.01), ("steps", MAX_PID_STEPS, 1000),
        ("setpoint", finite_float, 1.0), ("plant-gain", finite_float, 1.0),
        ("x0", finite_float, 0.0), ("disturbance", finite_float, 0.0))),
    ("avalanche",): ("action", "power-law series tools", ()),
    ("avalanche", "gen"): (_cmd_avalanche, "permuted power-law series", _SERIES),
    ("avalanche", "pfb"): (_cmd_avalanche, "adjacent-mean map of a series", _SERIES),
    ("avalanche", "nfb"): (_cmd_avalanche, "absolute adjacent-difference map", _SERIES),
    ("avalanche", "rank"): (_cmd_avalanche, "series sorted by magnitude", (
        *_SERIES, ("ascending", bool, False))),
    ("avalanche", "smooth"): (_cmd_avalanche, "block means of a series", (
        *_SERIES, ("factor", MAX_SERIES, 100))),
    ("avalanche", "bursts"): (_cmd_avalanche, "accumulate-and-release bursts", (
        ("n", MAX_SERIES, 1001), ("interval-min", positive_int, 4),
        ("interval-max", positive_int, 10))),
    ("avalanche", "threshold"): (_cmd_avalanche, "power-curve detection threshold", (
        ("n", MAX_SERIES, 10_000), ("e-model", finite_float, 0.1))),
    ("diffuse",): (_cmd_diffuse, "forward image noising", (
        ("input", file_path, None, "PGM image; omitted uses a built-in test image"),
        ("mode", ("uniform", "power"), "uniform"),
        ("levels", str, None, "comma list of alphas (uniform) or shapes (power)"),
        ("alpha", finite_float, 0.75, "blend fraction for power mode"),
        ("cumulative", bool, False))),
    ("lur",): ("action", "learning-unlearning-relearning protocol", ()),
    ("lur", "run"): (_cmd_lur, "reach phases under rotated force fields", (
        ("phases", str, "0:200,90:200,0:200", "angle:trials,..."), ("gain", finite_float, 1.0),
        ("rate", finite_float, 0.005), ("slow-rate", finite_float, 7e-5),
        ("retention", finite_float, 0.94), ("noise", finite_float, 0.02))),
    ("vehicle",): ("action", "color-gradient vehicle run", ()),
    ("vehicle", "run"): (_cmd_vehicle, "drive to the target color", (
        ("steps", MAX_VEHICLE_STEPS, 10_000), ("dt", finite_float, 0.02),
        ("sensor-offset", finite_float, 0.05), ("speed-gain", finite_float, 0.5),
        ("turn-gain", finite_float, 8.0), ("goal-radius", finite_float, 0.05))),
    ("demo",): ("which", "optimizers annotated as regulators", ()),
    ("demo", "gd"): (_cmd_demo, "gradient descent on a quadratic bowl", (
        ("lr", finite_float, 0.5), ("iters", MAX_GD_ITERS, 32), ("tx", finite_float, 1.0),
        ("ty", finite_float, -0.5), ("x0", finite_float, 0.0), ("y0", finite_float, 0.0))),
    ("demo", "q"): (_cmd_demo, "tabular Q-learning on a gridworld", (
        ("grid", str, "3x3"), ("episodes", positive_int, 2000), ("epsilon", finite_float, 0.1))),
}

# The names the subcommand words are stored under, and the namespace entries
# that are not run parameters: those, the handler, the config and the output.
_WORDS = frozenset(handler for handler, _, _ in _COMMANDS.values() if isinstance(handler, str))
_NOT_PARAMS = frozenset(("func", "config", "output")) | _WORDS


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process from ``_COMMANDS``.
    Parsing never changes it, so every call returns the same one."""
    root = _Parser(prog="regulab", description=__doc__)
    groups = {}
    for path, (handler, help_, flags) in _COMMANDS.items():
        parser = groups[path[:-1]].add_parser(path[-1], help=help_) if path else root
        if isinstance(handler, str):
            groups[path] = parser.add_subparsers(dest=handler, required=True)
        else:
            parser.set_defaults(func=handler)
            flags = (*_COMMON, *flags)
        for name, kind, default, *help_text in flags:
            options = ({"action": "store_true"} if kind is bool else
                       {"choices": kind} if isinstance(kind, tuple) else
                       {"type": _count(kind)} if isinstance(kind, int) else {"type": kind})
            parser.add_argument(f"--{name}", *(("-o",) if name == "output" else ()),
                                default=default, help=help_text[0] if help_text else None,
                                **options)
    return root


def _config_flags(args: argparse.Namespace, values: dict[str, str]) -> list[str]:
    """Command-line flags for the config file's ``values``: ``--key=value``,
    except that a switch (a flag taking no value) is given bare for ``true``
    and left out for ``false``. In ``args``, parsed for the same subcommand,
    only a switch holds a bool."""
    flags = []
    for key, value in values.items():
        flag = f"--{key.replace('_', '-')}"
        if not isinstance(getattr(args, key.replace("-", "_"), None), bool):
            flags.append(f"{flag}={value}")
        elif value == "true":
            flags.append(flag)
        elif value != "false":
            raise UsageError(f"config key {key!r} is a switch: its value must be true or "
                             f"false, got {value!r}")
    return flags


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``. With --config, parse again with the file's flags
    placed right after the subcommand words: argparse keeps the last value
    of a repeated flag, so the explicit flags that follow win."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        flags = _config_flags(args, _read_config_file(args.config))
        at = 0
        while argv[at].startswith("-"):  # --config path or --config=path
            at += 1 if "=" in argv[at] else 2
        at += sum(hasattr(args, word) for word in _WORDS)  # after the last subcommand word
        args = parser.parse_args([*argv[:at], *flags, *argv[at:]])
    missing = [f"--{k.replace('_', '-')}" for k, v in vars(args).items() if v is _REQUIRED]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return args


def _import_failure(exc: ImportError) -> str:
    """One line for an import that failed, numpy's in a run say, whose text
    may run to 20 lines: the module's name and the last non-empty line of the
    text. The name is the one the import system gives, else that of the
    innermost module whose import raised."""
    import traceback

    modules = [frame.f_globals.get("__name__") for frame, _ in traceback.walk_tb(exc.__traceback__)
               if frame.f_code.co_name == "<module>"]
    name = exc.name or (modules[-1] if modules else None)
    last = next((line.strip() for line in reversed(str(exc).splitlines()) if line.strip()), "")
    return f"{name or 'a module'} failed to import: {last}"


def dispatch(argv: list[str]) -> int:
    try:
        args = _parse(list(argv))
        started = time.perf_counter()
        files, extras = args.func(args)
        outputs: list[Path] = []

        def with_manifest() -> Files:  # the manifest is built once every output is written
            for path, chunks in files:
                outputs.append(path)
                yield path, chunks
            yield emit_manifest(args, outputs, time.perf_counter() - started, extras)

        _atomic_write(with_manifest())
        return 0
    except UsageError as exc:
        print(f"regulab: usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OverflowError) as exc:
        print(f"regulab: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError, MemoryError, ImportError) as exc:
        # A bare MemoryError has no text; an ImportError's may run to 20 lines.
        reason = _import_failure(exc) if isinstance(exc, ImportError) else str(exc)
        # The traceback holds the failed run's frames and all they made:
        # free them, or printing may run out of memory too.
        exc.__traceback__ = None
        print(f"regulab: runtime error: {reason or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
