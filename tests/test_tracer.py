"""perfbench's tracer still finds every function it wraps.

The tracer (``perfbench/tracer.py``) replaces regulab module attributes by
name. Renaming or deleting one of them breaks only a traced benchmark run,
so this test installs the tracer once and takes it out again."""

import types
from pathlib import Path

from regulab import procedural
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
