"""Run one workload's CLI jobs in this process, pass after pass.

    python3 perfbench/worker.py PLAN.json RESULT.json

PLAN.json holds the jobs (name, argv, directory), the seconds to run and
whether to trace. Each job is one ``regulab.cli.dispatch(argv)`` call, as a
user's invocation would make it, and a pass is one call per job in order.
Passes repeat while another one fits in the seconds. When tracing, a
warm-up pass is followed by untraced and traced passes in turn, so the
tracing overhead is measured in the same process.
The reference loop of gauge.py is timed before the first job, after the
last, and between jobs at least every ``gauge.EVERY_S`` of work. The worker
is a process of its own so that its peak resident set is the workload's
alone.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import regulab.cli

import gauge
import layers
import tracer as tracing


def _outputs(directory: Path) -> dict:
    """sha256 and size of each data file a job wrote. Manifests are left
    out, because they record wall time."""
    found = {}
    for path in sorted(directory.iterdir()) if directory.is_dir() else ():
        if not path.name.endswith(".manifest.jsonl"):
            data = path.read_bytes()
            found[path.name] = (hashlib.sha256(data).hexdigest(), len(data))
    return found


def _peak_rss_kib() -> int:
    """Peak resident set of this process image. ``ru_maxrss`` would also
    count the parent's peak, which an exec'd child inherits on Linux."""
    try:
        for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_pass(jobs: list, kind: str) -> dict:
    tracer = tracing.Tracer() if kind == "traced" else None
    for job in jobs:
        shutil.rmtree(job["dir"], ignore_errors=True)
    gc.collect()
    if tracer is not None:
        tracer.install()
    times, codes = [], []
    gauges = []  # (index of the next job, reference loop time)
    since = gauge.EVERY_S
    try:
        for index, job in enumerate(jobs):
            if since >= gauge.EVERY_S:
                gauges.append((index, gauge.loop_s()))
                since = 0.0
            if tracer is not None:
                tracer.job = index
            start = time.perf_counter()
            try:
                code = regulab.cli.dispatch(list(job["argv"]))
            except Exception:  # an uncaught error ends a user's run with exit code 1
                traceback.print_exc()
                code = 1
            times.append(time.perf_counter() - start)
            since += times[-1]
            codes.append(code)
            if tracer is not None:
                tracer.end_job()
    finally:
        if tracer is not None:
            tracer.uninstall()
    gauges.append((len(jobs), gauge.loop_s()))
    # Each job is gauged by the mean of the loop times just before and after it.
    loops = [(before + after) / 2 for (_, before), (_, after) in zip(gauges, gauges[1:])]
    job_loop = [loops[sum(g <= index for g, _ in gauges[1:])] for index in range(len(jobs))]
    outputs = [_outputs(Path(job["dir"])) for job in jobs]
    result = {"kind": kind, "wall_s": sum(times), "job_s": times, "loop_s": job_loop, "codes": codes,
              "hashes": [{name: h for name, (h, _) in out.items()} for out in outputs]}
    if tracer is not None:
        tracer.counts["cli.bytes_out"] = sum(size for out in outputs for _, size in out.values())
        result["layer"] = layers.pass_metrics(tracer.spans, tracer.counts)
        result["spans"] = tracer.spans
    return result


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    jobs, traced = plan["jobs"], plan["trace"]
    if traced:
        # A warm-up pass first, so that untraced and traced passes alike
        # run warm; each traced pass follows an untraced one.
        kinds = itertools.chain(["warmup"], itertools.cycle(["plain", "traced"]))
    else:
        kinds = itertools.repeat("plain")
    passes: list = []
    last_spans: list = []
    start = time.perf_counter()
    for kind in kinds:
        passes.append(run_pass(jobs, kind))
        last_spans = passes[-1].pop("spans", last_spans)
        timed = sum(p["kind"] != "warmup" for p in passes)
        elapsed = time.perf_counter() - start
        # Stop before a pass of average length would overrun the seconds.
        if timed >= (2 if traced else 1) and elapsed * (1 + 1 / len(passes)) > plan["seconds"]:
            break
    peak_rss_mb = _peak_rss_kib() * 1024 / 1e6
    if traced:
        with open(plan["spans"], "w", encoding="utf-8") as fh:
            for span in last_spans:
                fh.write(json.dumps(span) + "\n")
    Path(result_path).write_text(
        json.dumps({"passes": passes, "peak_rss_mb": peak_rss_mb}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
