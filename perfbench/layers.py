"""Per-layer metrics derived from the spans and counts of a traced pass.

The layers are regulab's nine modules. A span's self time is its length minus
the time its child spans cover; the self times of all spans of a pass add up
to the time spent in ``dispatch``, which ``trace.accounted_frac`` shows.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

MODULES = ("rng", "relation", "variety", "pid", "criticality", "diffusion", "procedural",
           "demos", "cli")

# (metric, unit, how it is derived); rates state their base.
PER_LAYER = (
    ("rng.draws", "count", "generator state moved / GAMMA, summed over generators"),
    ("rng.shuffle_s", "s", "shuffle spans"),
    ("rng.shuffle_rejects", "count", "draws inside shuffle minus (len - 1)"),
    ("criticality.gen_power_series_self_s", "s", "gen_power_series minus its shuffle child"),
    ("criticality.accumulate_release_s", "s", "accumulate_release spans"),
    ("criticality.self_s", "s", "self time of criticality spans"),
    ("diffusion.gen_noise_field_s", "s", "gen_noise_field spans"),
    ("diffusion.pixels", "pixels", "width * height of each noise field returned"),
    ("diffusion.ns_per_pixel", "ns/pixel", "diffusion.gen_noise_field_s / diffusion.pixels"),
    ("diffusion.read_pgm_s", "s", "read_pgm spans"),
    ("diffusion.blend_s", "s", "blend spans"),
    ("diffusion.image_stats_s", "s", "image_stats spans"),
    ("diffusion.pgm_bytes_s", "s", "pgm_bytes spans"),
    ("diffusion.self_s", "s", "self time of diffusion spans"),
    ("procedural.run_lur_s", "s", "run_lur spans"),
    ("procedural.trials", "trials", "trials in the curves run_lur returns"),
    ("procedural.us_per_trial", "us/trial", "procedural.run_lur_s / procedural.trials"),
    ("procedural.vehicle_step_s", "s", "vehicle_step spans"),
    ("procedural.vehicle_steps", "steps", "vehicle_step calls"),
    ("procedural.us_per_vehicle_step", "us/step",
     "procedural.vehicle_step_s / procedural.vehicle_steps"),
    ("procedural.sample_cmyk_calls", "calls", "sample_cmyk calls"),
    ("procedural.self_s", "s", "self time of procedural spans"),
    ("relation.run_relation_s", "s", "run_relation spans"),
    ("relation.ticks", "ticks", "length of the trajectories run_relation returns"),
    ("relation.us_per_tick", "us/tick", "relation.run_relation_s / relation.ticks"),
    ("relation.trajectory_to_csv_s", "s", "trajectory_to_csv spans"),
    ("relation.self_s", "s", "self time of relation spans"),
    ("pid.simulate_pid_s", "s", "simulate_pid spans"),
    ("pid.steps", "steps", "length of the trajectories simulate_pid returns"),
    ("pid.us_per_step", "us/step", "pid.simulate_pid_s / pid.steps"),
    ("pid.self_s", "s", "self time of pid spans"),
    ("demos.q_regulate_s", "s", "q_regulate spans"),
    ("demos.gd_regulate_s", "s", "gd_regulate spans"),
    ("demos.self_s", "s", "self time of demos spans"),
    ("variety.load_mapping_csv_s", "s", "load_mapping_csv spans"),
    ("variety.classify_s", "s", "classify_mapping and requisite_variety_check spans"),
    ("variety.self_s", "s", "self time of variety spans"),
    ("cli.self_s", "s", "dispatch spans minus all their children"),
    ("cli.bytes_out", "bytes", "size of the data files the jobs wrote"),
    ("cli.out_mb_per_s", "MB/s", "cli.bytes_out / 1e6 / cli.self_s"),
    ("cli.build_parser_s", "s", "build_parser spans"),
    ("cli.emit_manifest_s", "s", "emit_manifest spans"),
    ("cli.jobs", "jobs", "dispatch calls"),
    *((f"{m}.lines", "lines", f"lines of src/regulab/{m}.py") for m in MODULES),
    ("trace.dispatch_s", "s", "dispatch spans of a traced pass"),
    ("trace.accounted_frac", "ratio",
     "(module self times + cli.build_parser_s + cli.emit_manifest_s) / trace.dispatch_s"),
    ("trace.untraced_wall_s", "s", "dispatch wall time of an untraced pass"),
    ("trace.overhead_s", "s", "traced pass wall time minus that of the untraced pass before it"),
)

COUNTS = ("rng.draws", "rng.shuffle_rejects", "diffusion.pixels", "procedural.trials",
          "procedural.vehicle_steps", "procedural.sample_cmyk_calls", "relation.ticks",
          "pid.steps", "cli.bytes_out", "cli.jobs")


def _rate(num: float, den: float, scale: float) -> float:
    """num / den * scale, or 0 when nothing was counted."""
    return num / den * scale if den else 0.0


def pass_metrics(spans: list, counts: dict) -> dict:
    """Timings and counts of one traced pass."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    self_by_name: defaultdict = defaultdict(float)
    calls: defaultdict = defaultdict(int)
    for (name, start, end, _, _), child in zip(spans, children):
        self_by_name[name] += end - start - child
        calls[name] += 1

    def inclusive(*names: str) -> float:
        """Time in the outermost spans of the given names."""
        total = 0.0
        for name, start, end, parent, _ in spans:
            if name in names:
                while parent >= 0 and spans[parent][0] not in names:
                    parent = spans[parent][3]
                if parent < 0:
                    total += end - start
        return total

    module_self = defaultdict(float)
    for name, t in self_by_name.items():
        module_self[name.split(".", 1)[0]] += t

    m = dict(counts)
    m["procedural.vehicle_steps"] = calls["procedural.vehicle_step"]
    m["procedural.sample_cmyk_calls"] = calls["procedural.sample_cmyk"]
    m["cli.jobs"] = calls["cli.dispatch"]
    for key in COUNTS:
        m.setdefault(key, 0)
    for key in ("diffusion.gen_noise_field", "diffusion.read_pgm", "diffusion.blend",
                "diffusion.image_stats", "diffusion.pgm_bytes", "criticality.accumulate_release",
                "procedural.run_lur", "procedural.vehicle_step", "relation.run_relation",
                "relation.trajectory_to_csv", "pid.simulate_pid", "demos.q_regulate",
                "demos.gd_regulate", "variety.load_mapping_csv", "cli.build_parser",
                "cli.emit_manifest"):
        m[f"{key}_s"] = inclusive(key)
    m["rng.shuffle_s"] = inclusive("rng.shuffle")
    m["variety.classify_s"] = inclusive("variety.classify_mapping",
                                        "variety.requisite_variety_check")
    m["criticality.gen_power_series_self_s"] = self_by_name["criticality.gen_power_series"]
    for module in MODULES:
        if module not in ("rng", "cli"):
            m[f"{module}.self_s"] = module_self[module]
    m["cli.self_s"] = self_by_name["cli.dispatch"]
    m["trace.dispatch_s"] = inclusive("cli.dispatch")
    m["trace.accounted_frac"] = _rate(sum(module_self.values()), m["trace.dispatch_s"], 1.0)

    m["diffusion.ns_per_pixel"] = _rate(m["diffusion.gen_noise_field_s"], m["diffusion.pixels"], 1e9)
    m["procedural.us_per_trial"] = _rate(m["procedural.run_lur_s"], m["procedural.trials"], 1e6)
    m["procedural.us_per_vehicle_step"] = _rate(
        m["procedural.vehicle_step_s"], m["procedural.vehicle_steps"], 1e6)
    m["relation.us_per_tick"] = _rate(m["relation.run_relation_s"], m["relation.ticks"], 1e6)
    m["pid.us_per_step"] = _rate(m["pid.simulate_pid_s"], m["pid.steps"], 1e6)
    m["cli.out_mb_per_s"] = _rate(m["cli.bytes_out"], m["cli.self_s"], 1e-6)
    return m


def median_metrics(passes: list) -> dict:
    """Median of each timing over traced passes; counts taken as they are."""
    return {k: passes[0][k] if k in COUNTS else statistics.median(p[k] for p in passes)
            for k in passes[0]}
