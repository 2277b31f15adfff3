"""perfbench's tracer still finds every function it wraps, and counts the
work of the commands that call them.

The tracer (``perfbench/tracer.py``) replaces regulab module attributes by
name and reads work counts from their return values. Renaming or deleting
one of them, or changing the shape of what it returns, breaks only a traced
benchmark run, so these tests install the tracer and take it out again."""

import types
from pathlib import Path

from regulab import cli, procedural
from regulab.rng import SplitMix64

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    # Compiled from its text, so no bytecode cache is written beside it.
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_installs_on_every_traced_name_and_uninstalls():
    originals = (procedural.vehicle_step, procedural.sample_cmyk, SplitMix64.__init__)
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        assert procedural.vehicle_step is not originals[0]
    finally:
        tracer.uninstall()
    assert (procedural.vehicle_step, procedural.sample_cmyk, SplitMix64.__init__) == originals


def test_tracer_counts_the_work_of_each_traced_command(tmp_path):
    runs = {"lur": ["lur", "run", "--phases", "0:3,90:2"], "relation": ["relation", "--ticks", "7"],
            "pid": ["pid", "--steps", "11"],
            "vehicle": ["vehicle", "run", "--steps", "5", "--goal-radius", "0"],
            "diffuse": ["diffuse", "--levels", "0.5,0.25"]}
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        for name, argv in runs.items():
            out = tmp_path / (f"{name}.pgm" if name == "diffuse" else f"{name}.csv")
            assert cli.dispatch([*argv, "--seed", "1", "--output", str(out)]) == 0, name
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert (counts["procedural.trials"], counts["relation.ticks"], counts["pid.steps"],
            counts["diffusion.pixels"]) == (5, 7, 11, 18432)
    names = [span[0] for span in tracer.spans]
    assert names.count("procedural.vehicle_step") == 5
    assert "relation.trajectory_to_csv" in names
