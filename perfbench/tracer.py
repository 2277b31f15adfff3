"""Spans around the calls into regulab's layers, recorded from outside the
program.

The tracer replaces module attributes with timing wrappers, so a call is
caught whether the CLI makes it or another function of the same module does.
It wraps functions that run once per job or per stage, plus the two per-step
functions the vehicle metrics need; it never wraps a per-draw method.

Work counts come from outside the program: return values (trials, ticks,
steps, pixels), generator state (RNG draws) and file sizes (bytes out, added
by the worker). ``rng.draws`` is exact because the k-th SplitMix64 state is
``seed + k * GAMMA`` modulo 2**64, so a generator that moved from state a to
state b has made ``(b - a) * GAMMA**-1`` draws.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from regulab import cli, criticality, demos, diffusion, pid, procedural, relation, variety
from regulab.rng import SplitMix64

_MASK64 = (1 << 64) - 1
_GAMMA_INV = pow(0x9E3779B97F4A7C15, -1, 1 << 64)  # SplitMix64's state increment, inverted


def _draws(start: int, end: int) -> int:
    return ((end - start) * _GAMMA_INV) & _MASK64


def _count(key: str, of_result):
    """A hook that adds ``of_result(result)`` to ``counts[key]``."""

    def hook(counts, result):
        counts[key] += of_result(result)

    return hook


# Module -> {public function: counter hook or None}.
_WRAPPED = {
    criticality: dict.fromkeys(("gen_power_series", "accumulate_release", "pfb_map", "nfb_map",
                                "rank_order", "threshold_model", "smooth_model")),
    diffusion: {
        **dict.fromkeys(("read_pgm", "run_schedule", "blend", "image_stats", "pgm_bytes",
                         "synthetic_portrait")),
        "gen_noise_field": _count("diffusion.pixels", lambda img: img.width * img.height),
    },
    procedural: {
        "run_lur": _count("procedural.trials", lambda r: sum(map(len, r.phase_errors))),
        "vehicle_step": None,
        "sample_cmyk": None,
        "equilateral_field": None,
    },
    relation: {
        "run_relation": _count("relation.ticks", len),
        "toggle_benchmark": None,
        "point_regulation_score": None,
        "trajectory_to_csv": None,
    },
    pid: {"simulate_pid": _count("pid.steps", lambda traj: len(traj.ticks))},
    demos: dict.fromkeys(("gd_regulate", "q_regulate")),
    variety: dict.fromkeys(("load_mapping_csv", "classify_mapping", "requisite_variety_check")),
    cli: dict.fromkeys(("dispatch", "build_parser", "emit_manifest")),
}


class Tracer:
    """Records (name, start, end, parent index, job) spans in memory while
    installed. Set ``job`` before each job and call ``end_job`` after it."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.job = -1
        self._stack: list = []
        self._generators: list = []  # (generator, state when created)
        self._saved: list = []  # (owner, attribute, original)

    def _span(self, name: str, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self.job)
            if hook is not None:
                hook(counts, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, functions in _WRAPPED.items():
            short = module.__name__.rsplit(".", 1)[-1]
            for name, hook in functions.items():
                self._patch(module, name, self._span(f"{short}.{name}", getattr(module, name), hook))

        init, generators = SplitMix64.__init__, self._generators

        def counted_init(gen, seed):
            init(gen, seed)
            generators.append((gen, gen._state))

        shuffle, counts = self._span("rng.shuffle", SplitMix64.shuffle), self.counts

        def counted_shuffle(gen, items):
            before = gen._state
            shuffle(gen, items)
            counts["rng.shuffle_rejects"] += _draws(before, gen._state) - max(len(items) - 1, 0)

        self._patch(SplitMix64, "__init__", counted_init)
        self._patch(SplitMix64, "shuffle", counted_shuffle)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def end_job(self) -> None:
        """Add the draws of every generator the job created."""
        self.counts["rng.draws"] += sum(_draws(s, g._state) for g, s in self._generators)
        self._generators.clear()
