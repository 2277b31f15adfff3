"""Batch command-line front end.

One experiment per invocation. Every run takes an explicit --seed (there
is no wall-clock fallback, so documented runs stay reproducible), writes
its CSV/PGM outputs atomically (temp file, then rename), and finishes by
writing a one-line JSON-lines manifest beside the outputs, replacing any
earlier one, recording the tool version, subcommand, resolved parameters,
seed, output files, RNG algorithm, and wall time.

Exit codes: 0 success, 2 usage or parameter error (one-line reason on
stderr), 1 runtime error.

Flags override a line-oriented ``key=value`` config file (--config),
which overrides built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .rng import RNG_ALGORITHM, SplitMix64
from . import criticality as crit
from . import demos
from . import diffusion as diff
from . import pid as pidmod
from . import procedural as proc
from . import relation as rel
from . import variety as var


@dataclass
class RunConfig:
    subcommand: str
    params: dict[str, str]
    seed: int
    output: Path


@dataclass
class RunManifest:
    version: str
    subcommand: str
    params: dict
    seed: int
    outputs: list[str]
    rng: str = RNG_ALGORITHM
    wall_time_s: float = 0.0
    extra: dict = field(default_factory=dict)


class UsageError(ValueError):
    """Bad arguments or parameter preconditions; maps to exit code 2."""


def _atomic_write_text(path: Path, chunks: Iterable[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_bytes(path: Path, blob: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _params_line(params: dict) -> str:
    body = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"# params: {body}\n"


# Rows formatted per chunk: bounds the text held at once for a long series.
_CSV_CHUNK_ROWS = 4096


def _csv(params: dict, header: str, *columns) -> Iterator[str]:
    """CSV text in chunks: the ``# params:`` line, the header, then row k
    made of item k of every column.

    Columns are equal-length ranges, tuples, lists or numpy arrays. A column
    whose first item is a float is written at 17 significant digits, any
    other with ``str``.
    """
    yield _params_line(params) + header + "\n"
    if not columns:
        return
    row = ",".join("{:.17g}" if isinstance(c[0], float) else "{}" for c in columns) + "\n"
    for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        stop = start + _CSV_CHUNK_ROWS
        chunk = [c[start:stop].tolist() if isinstance(c, np.ndarray) else c[start:stop]
                 for c in columns]
        yield "".join(map(row.format, *chunk))


def emit_manifest(cfg: RunConfig, outputs: list[Path], wall_time_s: float, extra: dict | None = None) -> Path:
    manifest = RunManifest(
        version=__version__,
        subcommand=cfg.subcommand,
        params={**cfg.params, "seed": cfg.seed},
        seed=cfg.seed,
        outputs=[str(p) for p in outputs],
        wall_time_s=wall_time_s,
        extra=extra or {},
    )
    path = cfg.output.with_suffix(cfg.output.suffix + ".manifest.jsonl")
    record = {
        "version": manifest.version,
        "subcommand": manifest.subcommand,
        "params": manifest.params,
        "seed": manifest.seed,
        "outputs": manifest.outputs,
        "rng": manifest.rng,
        "wall_time_s": manifest.wall_time_s,
        "extra": manifest.extra,
    }
    _atomic_write_text(path, [json.dumps(record, sort_keys=True) + "\n"])
    return path


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (output paths, manifest extras)
# ---------------------------------------------------------------------------


def _cmd_relation(a) -> tuple[list[Path], dict]:
    mode = rel.LoopMode.CLOSED if a.mode == "closed" else rel.LoopMode.FEEDFORWARD
    relation = rel.toggle_benchmark(mode=mode)
    stream = [("kick", "calm")] * a.ticks
    traj = rel.run_relation(relation, stream, a.ticks)
    params = {"mode": a.mode, "ticks": a.ticks, "seed": a.seed}
    _atomic_write_text(a.output, [_params_line(params), rel.trajectory_to_csv(traj)])
    point = rel.point_regulation_score(traj, bins=2)
    return [a.output], {"point_entropy_bits": point}


def _cmd_variety(a) -> tuple[list[Path], dict]:
    mapping = var.load_mapping_csv(a.pairs)
    cls = var.classify_mapping(mapping)
    verdict = var.requisite_variety_check(mapping)
    params = {"pairs": a.pairs, "seed": a.seed}
    row = (
        cls.tag.value,
        f"{cls.variety_ratio.numerator}/{cls.variety_ratio.denominator}",
        "Satisfied" if verdict.satisfied else "Violated",
        verdict.reason or "",
    )
    _atomic_write_text(a.output, _csv(params, "class,variety_ratio,verdict,reason", *zip(row)))
    return [a.output], {}


def _cmd_pid(a) -> tuple[list[Path], dict]:
    gains = pidmod.PidGains(kp=a.kp, ti=a.ti if a.ti > 0 else math.inf, td=a.td)
    traj = pidmod.simulate_pid(
        gains, a.plant_gain, a.setpoint, a.x0, a.dt, a.steps, disturbance=a.disturbance
    )
    params = {
        "kp": a.kp, "ti": a.ti, "td": a.td, "dt": a.dt, "steps": a.steps,
        "setpoint": a.setpoint, "plant_gain": a.plant_gain, "x0": a.x0,
        "disturbance": a.disturbance, "seed": a.seed,
    }
    _atomic_write_text(a.output, _csv(params, "tick,x,u,e", traj.ticks, traj.x, traj.u, traj.e))
    return [a.output], {"final_error": float(traj.e[-1])}


def _cmd_avalanche(a) -> tuple[list[Path], dict]:
    extras: dict = {}
    if a.action == "gen":
        ps = crit.gen_power_series(a.n, a.e, a.seed)
        params = {"n": a.n, "e": a.e, "seed": a.seed}
        chunks = _csv(params, "tick,value", range(len(ps.samples)), ps.samples)
    elif a.action in ("pfb", "nfb"):
        ps = crit.gen_power_series(a.n, a.e, a.seed)
        mapped = crit.pfb_map(ps.samples) if a.action == "pfb" else crit.nfb_map(ps.samples)
        params = {"n": a.n, "e": a.e, "seed": a.seed, "map": a.action}
        chunks = _csv(params, "tick,value", range(len(mapped)), mapped)
    elif a.action == "bursts":
        sched = crit.BurstSchedule(a.interval_min, a.interval_max)
        rng = SplitMix64(a.seed)
        moments = rng.floats(a.n)
        bursts, events = crit.accumulate_release(moments, sched, rng.next_u64())
        params = {
            "n": a.n, "interval_min": a.interval_min, "interval_max": a.interval_max,
            "seed": a.seed,
        }
        chunks = _csv(params, "tick,burst", range(len(bursts)), bursts)
        extras["release_count"] = int(len(events.times))
    elif a.action == "rank":
        ps = crit.gen_power_series(a.n, a.e, a.seed)
        ranked = crit.rank_order(ps.samples, descending=not a.ascending)
        params = {"n": a.n, "e": a.e, "seed": a.seed, "descending": not a.ascending}
        chunks = _csv(params, "rank,value", range(len(ranked)), ranked)
    elif a.action == "threshold":
        curve, crossing = crit.threshold_model(a.n, a.e_model)
        params = {"n": a.n, "e_model": a.e_model, "seed": a.seed}
        chunks = _csv(params, "index,value", range(len(curve)), curve)
        extras["crossing_index"] = crossing
    elif a.action == "smooth":
        ps = crit.gen_power_series(a.n, a.e, a.seed)
        smoothed = crit.smooth_model(ps.samples, a.factor)
        params = {"n": a.n, "e": a.e, "factor": a.factor, "seed": a.seed}
        chunks = _csv(params, "index,value", range(len(smoothed)), smoothed)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown avalanche action {a.action!r}")
    _atomic_write_text(a.output, chunks)
    return [a.output], extras


def _cmd_diffuse(a) -> tuple[list[Path], dict]:
    img = diff.read_pgm(a.input) if a.input else diff.synthetic_portrait()
    levels = [float(x) for x in a.levels.split(",")] if a.levels else None
    if a.mode == "uniform":
        sched = diff.uniform_schedule(levels or diff.DEFAULT_UNIFORM_ALPHAS)
    else:
        sched = diff.power_schedule(levels or diff.DEFAULT_POWER_SHAPES, alpha=a.alpha)
    stages = diff.run_schedule(img, sched, a.seed, cumulative=a.cumulative)
    base = a.output
    outputs: list[Path] = []
    stats_rows = []
    for i, stage in enumerate(stages):
        p = base.with_name(f"{base.stem}_{i}{base.suffix or '.pgm'}")
        _atomic_write_bytes(p, diff.pgm_bytes(stage))
        outputs.append(p)
        mean, varc, _ = diff.image_stats(stage)
        level = sched.steps[i].alpha if a.mode == "uniform" else sched.steps[i].shape
        stats_rows.append((i, float(level), mean, varc))
    params = {
        "mode": a.mode, "levels": ",".join(str(s) for s in (levels or [])) or "default",
        "alpha": a.alpha, "cumulative": a.cumulative, "seed": a.seed,
        "input": a.input or "synthetic",
    }
    stats_path = base.with_name(f"{base.stem}_stats.csv")
    _atomic_write_text(stats_path, _csv(params, "step,level,mean,variance", *zip(*stats_rows)))
    outputs.append(stats_path)
    return outputs, {}


def _cmd_lur(a) -> tuple[list[Path], dict]:
    phases = []
    for chunk in a.phases.split(","):
        angle_s, _, trials_s = chunk.partition(":")
        phases.append((float(angle_s), int(trials_s)))
    sched = proc.LurSchedule(tuple(phases))
    learner = proc.ReachLearner(rate=a.rate, slow_rate=a.slow_rate, fast_retention=a.retention)
    tp = proc.TrialParams(noise=a.noise)
    result = proc.run_lur(learner, sched, tp, gain=a.gain, seed=a.seed)
    params = {
        "phases": a.phases, "gain": a.gain, "rate": a.rate, "slow_rate": a.slow_rate,
        "retention": a.retention, "noise": a.noise, "seed": a.seed,
    }
    rows = []
    for p_idx, curve in enumerate(result.phase_errors):
        for t_idx, err in enumerate(curve):
            rows.append((p_idx, t_idx, err))
    _atomic_write_text(a.output, _csv(params, "phase,trial,error", *zip(*rows)))
    extras = {"interference": result.interference, "savings": result.savings}
    return [a.output], extras


def _cmd_vehicle(a) -> tuple[list[Path], dict]:
    field_ = proc.equilateral_field()
    centroid = field_.vertices.mean(axis=0)
    target = proc.sample_cmyk(field_, field_.vertices[0])
    to_c = field_.vertices[0] - centroid
    vehicle = proc.Vehicle(
        position=centroid,
        heading=math.atan2(to_c[1], to_c[0]),
        sensor_offset=a.sensor_offset,
        speed_gain=a.speed_gain,
        turn_gain=a.turn_gain,
        target=target,
        goal_radius=a.goal_radius,
    )
    params = {
        "steps": a.steps, "dt": a.dt, "sensor_offset": a.sensor_offset,
        "speed_gain": a.speed_gain, "turn_gain": a.turn_gain,
        "goal_radius": a.goal_radius, "seed": a.seed,
    }
    rows = []
    reached = None
    for step in range(a.steps):
        vehicle = proc.vehicle_step(vehicle, field_, a.dt)
        color = proc.sample_cmyk(field_, vehicle.position)
        dist = proc.cmyk_distance(color, target)
        rows.append(
            (step, float(vehicle.position[0]), float(vehicle.position[1]),
             color.c, color.m, color.y, color.k, dist)
        )
        if dist <= a.goal_radius:
            reached = step
            break
    _atomic_write_text(a.output, _csv(params, "step,x,y,c,m,y,k,dist", *zip(*rows)))
    return [a.output], {"reached_at_step": reached}


def _cmd_demo(a) -> tuple[list[Path], dict]:
    outputs: list[Path] = []
    if a.which == "gd":
        traj, annotation = demos.gd_regulate((a.tx, a.ty), (a.x0, a.y0), a.lr, a.iters)
        params = {"lr": a.lr, "iters": a.iters, "target": f"{a.tx};{a.ty}",
                  "x0": f"{a.x0};{a.y0}", "seed": a.seed}
        rows = []
        for k, point in enumerate(traj):
            err = math.hypot(point[0] - a.tx, point[1] - a.ty)
            rows.append((k, float(point[0]), float(point[1]), err))
        _atomic_write_text(a.output, _csv(params, "iter,x0,x1,error", *zip(*rows)))
        outputs.append(a.output)
    else:
        w, _, h = a.grid.partition("x")
        cfg = demos.QConfig(
            width=int(w), height=int(h), goal_cell=(int(w) - 1, int(h) - 1),
            episodes=a.episodes, exploration=a.epsilon,
        )
        policy, q, annotation = demos.q_regulate(cfg, a.seed)
        params = {"grid": a.grid, "episodes": a.episodes, "epsilon": a.epsilon, "seed": a.seed}
        rows = []
        for (x, y), action in sorted(policy.items()):
            rows.append((x, y, demos.ACTION_NAMES[action], float(np.max(q[(x, y)]))))
        _atomic_write_text(a.output, _csv(params, "x,y,greedy_action,value", *zip(*rows)))
        outputs.append(a.output)
    roles_path = a.output.with_name(a.output.stem + "_roles.jsonl")
    lines = [
        json.dumps({"component": comp, "role": role, "interpretive": annotation.interpretive},
                   sort_keys=True)
        for comp, role in sorted(annotation.assignments.items())
    ]
    _atomic_write_text(roles_path, ["\n".join(lines) + "\n"])
    outputs.append(roles_path)
    return outputs, {}


# ---------------------------------------------------------------------------
# Parsing and dispatch
# ---------------------------------------------------------------------------


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"config line is not key=value: {raw!r}")
        values[key.strip()] = value.strip()
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 2 with a one-line reason
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="regulab", description=__doc__, add_help=True)
    p.add_argument("--config", default=None, help="key=value defaults file")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--output", "-o", type=Path, required=True)

    sp = sub.add_parser("relation", help="toggle benchmark trajectory")
    sp.add_argument("--mode", choices=("closed", "feedforward"), default="closed")
    sp.add_argument("--ticks", type=int, default=32)
    common(sp)
    sp.set_defaults(func=_cmd_relation)

    sp = sub.add_parser("variety", help="classify a state mapping CSV")
    sp.add_argument("--pairs", required=True, help="CSV with header r_state,s_state")
    common(sp)
    sp.set_defaults(func=_cmd_variety)

    sp = sub.add_parser("pid", help="closed-loop setpoint tracking")
    sp.add_argument("--kp", type=float, default=1.0)
    sp.add_argument("--ti", type=float, default=0.0, help="integral time, 0 disables")
    sp.add_argument("--td", type=float, default=0.0)
    sp.add_argument("--dt", type=float, default=0.01)
    sp.add_argument("--steps", type=int, default=1000)
    sp.add_argument("--setpoint", type=float, default=1.0)
    sp.add_argument("--plant-gain", dest="plant_gain", type=float, default=1.0)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--disturbance", type=float, default=0.0)
    common(sp)
    sp.set_defaults(func=_cmd_pid)

    ap = sub.add_parser("avalanche", help="power-law series tools")
    asub = ap.add_subparsers(dest="action", required=True)
    for action in ("gen", "pfb", "nfb", "rank", "smooth"):
        sp = asub.add_parser(action)
        sp.add_argument("--n", type=int, default=10_000)
        sp.add_argument("--e", type=float, default=1.0)
        if action == "rank":
            sp.add_argument("--ascending", action="store_true")
        if action == "smooth":
            sp.add_argument("--factor", type=int, default=100)
        common(sp)
        sp.set_defaults(func=_cmd_avalanche, action=action)
    sp = asub.add_parser("bursts")
    sp.add_argument("--n", type=int, default=1001)
    sp.add_argument("--interval-min", dest="interval_min", type=int, default=4)
    sp.add_argument("--interval-max", dest="interval_max", type=int, default=10)
    common(sp)
    sp.set_defaults(func=_cmd_avalanche, action="bursts")
    sp = asub.add_parser("threshold")
    sp.add_argument("--n", type=int, default=10_000)
    sp.add_argument("--e-model", dest="e_model", type=float, default=0.1)
    common(sp)
    sp.set_defaults(func=_cmd_avalanche, action="threshold")

    sp = sub.add_parser("diffuse", help="forward image noising")
    sp.add_argument("--input", default=None, help="PGM image; omitted uses a built-in test image")
    sp.add_argument("--mode", choices=("uniform", "power"), default="uniform")
    sp.add_argument("--levels", default=None, help="comma list of alphas (uniform) or shapes (power)")
    sp.add_argument("--alpha", type=float, default=0.75, help="blend fraction for power mode")
    sp.add_argument("--cumulative", action="store_true")
    common(sp)
    sp.set_defaults(func=_cmd_diffuse)

    lp = sub.add_parser("lur", help="learning-unlearning-relearning protocol")
    lsub = lp.add_subparsers(dest="action", required=True)
    sp = lsub.add_parser("run")
    sp.add_argument("--phases", default="0:200,90:200,0:200", help="angle:trials,...")
    sp.add_argument("--gain", type=float, default=1.0)
    sp.add_argument("--rate", type=float, default=0.005)
    sp.add_argument("--slow-rate", dest="slow_rate", type=float, default=7e-5)
    sp.add_argument("--retention", type=float, default=0.94)
    sp.add_argument("--noise", type=float, default=0.02)
    common(sp)
    sp.set_defaults(func=_cmd_lur, action="run")

    vp = sub.add_parser("vehicle", help="color-gradient vehicle run")
    vsub = vp.add_subparsers(dest="action", required=True)
    sp = vsub.add_parser("run")
    sp.add_argument("--steps", type=int, default=10_000)
    sp.add_argument("--dt", type=float, default=0.02)
    sp.add_argument("--sensor-offset", dest="sensor_offset", type=float, default=0.05)
    sp.add_argument("--speed-gain", dest="speed_gain", type=float, default=0.5)
    sp.add_argument("--turn-gain", dest="turn_gain", type=float, default=8.0)
    sp.add_argument("--goal-radius", dest="goal_radius", type=float, default=0.05)
    common(sp)
    sp.set_defaults(func=_cmd_vehicle, action="run")

    dp = sub.add_parser("demo", help="optimizers annotated as regulators")
    dsub = dp.add_subparsers(dest="which", required=True)
    sp = dsub.add_parser("gd")
    sp.add_argument("--lr", type=float, default=0.5)
    sp.add_argument("--iters", type=int, default=32)
    sp.add_argument("--tx", type=float, default=1.0)
    sp.add_argument("--ty", type=float, default=-0.5)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--y0", type=float, default=0.0)
    common(sp)
    sp.set_defaults(func=_cmd_demo, which="gd")
    sp = dsub.add_parser("q")
    sp.add_argument("--grid", default="3x3")
    sp.add_argument("--episodes", type=int, default=2000)
    sp.add_argument("--epsilon", type=float, default=0.1)
    common(sp)
    sp.set_defaults(func=_cmd_demo, which="q")

    return p


def _apply_config_defaults(argv: list[str]) -> list[str]:
    """Insert config-file values as flags ahead of CLI flags, so the real
    flags win. Only keys not already present on the command line apply."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    cfg_path = argv[idx + 1]
    values = _read_config_file(cfg_path)
    present = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--")}
    injected: list[str] = []
    for key, value in values.items():
        flag = f"--{key.replace('_', '-')}"
        if flag not in present:
            injected.extend([flag, value])
    head = argv[: idx + 2]
    tail = argv[idx + 2 :]
    if not tail:
        return argv
    # Inject after the subcommand words, before explicit flags.
    split = 0
    while split < len(tail) and not tail[split].startswith("-"):
        split += 1
    return head + tail[:split] + injected + tail[split:]


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        argv = _apply_config_defaults(list(argv))
        args = parser.parse_args(argv)
        started = time.perf_counter()
        outputs, extras = args.func(args)
        wall = time.perf_counter() - started
        flat_params = {
            k: v
            for k, v in vars(args).items()
            if k not in ("func", "config", "output", "seed") and not callable(v)
        }
        cfg = RunConfig(
            subcommand=args.subcommand,
            params={k: str(v) for k, v in flat_params.items()},
            seed=args.seed,
            output=args.output,
        )
        emit_manifest(cfg, outputs, wall, extras)
        return 0
    except UsageError as exc:
        print(f"regulab: usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"regulab: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"regulab: runtime error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"regulab: runtime error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
