#!/usr/bin/env python3
"""regulab benchmark: run a workload of CLI jobs, check its outputs, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root or anywhere else; paths resolve against the
root. The inputs are generated from ``--seed`` (see workloads.py). The jobs
run in a worker process (worker.py) for ``--seconds`` seconds, pass after
pass. Every job's outputs are checked after the run: against pinned sha256
values for the default seed, structurally for any other seed, and for
identical bytes across passes. A failed check counts in ``failed``.

With ``--trace 0`` the end-to-end metrics are reported:

* ``wall_s``: median over passes of one pass's time in ``dispatch`` calls;
* ``setup_s``: median over fresh interpreters, half started before the
  passes and half after, of ``import regulab.cli`` plus ``build_parser()``,
  the cost every invocation pays before any work;
* ``peak_rss_mb``: peak resident set of the worker process.

Both times are scaled to reference speed with the loop of gauge.py, timed
around each job and each interpreter, because other tenants of a shared
machine swing its speed for minutes at a time. The unscaled medians are
printed beside them and kept in the run's record.

With ``--trace 1`` a warm-up pass is followed by untraced and traced passes
in turn, and the per-layer metrics of layers.py are reported, with the
tracing overhead. The spans of the last traced pass are written to
``.perfbench_work/<workload>/spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each run's full record
(environment, metrics, failures, output hashes) is also written to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gauge
import workloads
from layers import COUNTS, MODULES, PER_LAYER, median_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench_work")
PINNED = HERE / "pinned.json"
SETUP_REPEATS = 8
SETUP_CODE = ("import time; t = time.perf_counter(); import regulab.cli; "
              "regulab.cli.build_parser(); print(time.perf_counter() - t)")
RUN_LIMIT_S = 165  # the whole run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _commit() -> str:
    try:
        head = Path(".git/HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if Path(".git", ref).is_file():
            return Path(".git", ref).read_text(encoding="utf-8").strip()
        for line in Path(".git/packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    src = sorted(Path("src/regulab").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "lines": {m: len(Path(f"src/regulab/{m}.py").read_text(encoding="utf-8").splitlines())
                  for m in MODULES},
    }


def time_setup(repeats: int) -> tuple[list, list]:
    """Set-up times of ``repeats`` fresh interpreters, and the reference
    loop times taken before and after each."""
    times, loops = [], []
    for _ in range(repeats):
        loops.append(gauge.loop_s())
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(),
                             capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            raise BenchError(f"set-up run failed: {out.stderr.strip()}")
        times.append(float(out.stdout))
        loops.append(gauge.loop_s())
    return times, loops


def run_worker(work: Path, jobs: list, seconds: float, trace: bool, deadline: float) -> dict:
    plan = {
        "jobs": [{"name": j.name, "argv": list(j.argv), "dir": str(work / "out" / j.name)}
                 for j in jobs],
        "seconds": seconds,
        "trace": trace,
        "spans": str(work / "spans.jsonl"),
    }
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "worker.py"), str(work / "plan.json"),
           str(work / "result.json")]
    try:
        # One thread: OpenBLAS would otherwise start a pool at import.
        env = {**_child_env(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run(cmd, env=env, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def verify(name: str, seed: int, work: Path, jobs: list, passes: list) -> tuple[int, list]:
    """(failed job runs, problems). A job run fails on a non-zero exit code,
    on outputs that fail their checks, or on bytes that differ from the
    reference: the pinned hashes for the default seed, otherwise the last
    pass, whose files are the ones checked."""
    pinned = None
    if seed == workloads.DEFAULT_SEED:
        pinned = json.loads(PINNED.read_text(encoding="utf-8"))[name]
    failed, problems = 0, []
    for j, job in enumerate(jobs):
        found = workloads.check_job(job, work / "out" / job.name)
        reference = passes[-1]["hashes"][j] if pinned is None else pinned.get(job.name)
        if reference != passes[-1]["hashes"][j]:
            found.append("sha256 differs from the pinned value")
        codes = sorted({p["codes"][j] for p in passes} - {0})
        if codes:
            found.append(f"exit codes {codes}")
        if any(p["hashes"][j] != passes[-1]["hashes"][j] for p in passes):
            found.append("bytes differ between passes")
        problems += [f"{job.name}: {p}" for p in found]
        failed += sum(1 for p in passes
                      if p["codes"][j] != 0 or found or p["hashes"][j] != reference)
    return failed, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    jobs = workloads.build(name, seed, work)
    if not trace:
        # The first interpreter compiles the bytecode that an installation
        # already has, so it is not counted. Half the counted ones run before
        # the passes and half after, to sample the machine at both ends.
        setup, setup_loops = time_setup(1 + SETUP_REPEATS // 2)
        del setup[0]
    result = run_worker(work, jobs, seconds, trace, deadline)
    if not trace:
        more, more_loops = time_setup(SETUP_REPEATS - len(setup))
        setup += more
        setup_loops += more_loops
    passes = result["passes"]
    failed, problems = verify(name, seed, work, jobs, passes)
    plain = [p for p in passes if p["kind"] == "plain"]
    if trace:
        from_traced = [p["layer"] for p in passes if p["kind"] == "traced"]
        for key in COUNTS:
            if len({p[key] for p in from_traced}) != 1:
                problems.append(f"{key} differs between traced passes")
        values = median_metrics(from_traced)
        values.update({f"{m}.lines": n for m, n in env["lines"].items()})
        values["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in plain)
        # Each traced pass against the untraced pass just before it.
        values["trace.overhead_s"] = statistics.median(
            b["wall_s"] - a["wall_s"] for a, b in zip(passes, passes[1:]) if b["kind"] == "traced")
        units = {m: (unit, how) for m, unit, how in PER_LAYER}
        raw = {}
    else:
        values = {
            "wall_s": statistics.median(
                sum(map(gauge.scaled, p["job_s"], p["loop_s"])) for p in plain),
            # One interpreter is too short to gauge alone: scale the median.
            "setup_s": gauge.scaled(statistics.median(setup), statistics.median(setup_loops)),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        raw = {"wall_s": statistics.median(p["wall_s"] for p in plain),
               "setup_s": statistics.median(setup)}
        units = {m: (unit, "") for m, unit in END_TO_END.items()}
    attempted = len(jobs) * len(passes)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "problems": problems,
        "pass_walls_s": [p["wall_s"] for p in passes],
        "job_s": [p["job_s"] for p in passes],
        "loop_s": [p["loop_s"] for p in passes],
        "raw": raw,
        "setup_raw_s": [] if trace else setup,
        "metrics": {m: {"value": values[m], "unit": units[m][0]} for m in units},
        "derived": {m: how for m, (_, how) in units.items() if how},
        "hashes": {job.name: passes[-1]["hashes"][j] for j, job in enumerate(jobs)},
        "env": env,
    }


def report(rec: dict) -> None:
    name, runs = rec["workload"], len(rec["pass_walls_s"])
    for m, v in rec["metrics"].items():
        how = rec["derived"].get(m)
        if m in rec["raw"]:
            how = f"unscaled median {rec['raw'][m]:.6g} s"
        value = f"{v['value']:>16}" if isinstance(v["value"], int) else f"{v['value']:>16.6g}"
        print(f"{name:12} {m:38} {value} {v['unit']:9}" + (f" {how}" if how else ""))
    print(f"{name:12} {'fail_frac':38} {rec['fail_frac']:>16.6g} {'ratio':9} "
          f"{rec['failed']} of {rec['attempted']} job runs ({runs} passes)")
    for problem in rec["problems"][:20]:
        print(f"{name}: {problem}", file=sys.stderr)


def main(argv: list | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, exit through subprocess.run, which kills and waits for its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    os.chdir(ROOT)
    if not Path("src/regulab/cli.py").is_file():
        print(f"perfbench: no regulab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    print(json.dumps({"env": env}, sort_keys=True))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
            results = WORK / "results"
            results.mkdir(parents=True, exist_ok=True)
            (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(rec, indent=1, sort_keys=True), encoding="utf-8")
            report(rec)
            records.append(rec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in records for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
