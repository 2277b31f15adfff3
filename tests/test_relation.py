"""Closed-loop relation stepping, loop-mode isolation, entropy scores."""

import math
import struct
from argparse import Namespace
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from regulab.cli import _csv
from regulab.relation import (
    ClosedLoopRelation,
    DestroyedVarietyError,
    DiscreteSystem,
    InternalModel,
    LoopMode,
    Regulator,
    Trajectory,
    _bin_outputs,
    path_regulation_score,
    point_regulation_score,
    run_relation,
    run_relation_carry,
    toggle_benchmark,
    trajectory_to_csv,
)
from regulab.rng import SplitMix64
from regulab.variety import StateSet


def csv_text(traj):
    """The CSV ``regulab relation`` writes of ``traj``'s columns, as
    ``cli._csv`` writes it, with no ``# params:`` line."""
    head, *rows = _csv(Namespace(), "tick,s_state,r_state,output,error,phi,rho",
                       *trajectory_to_csv(traj))
    return head.partition("\n")[2] + b"".join(rows).decode("utf-8")


def identity_relation(goal=lambda y: y == 0.0):
    system = DiscreteSystem(
        states=StateSet(("only",)),
        input_alphabet=("idle",),
        disturbance_alphabet=("d0", "d1"),
        transition=lambda s, u, d: "only",
        emission=lambda s: 0.0,
        idle_input="idle",
    )
    regulator = Regulator(
        states=StateSet(("r",)),
        observations=frozenset({0.0}),
        policy=lambda y, r: ("r", "idle"),
    )
    return ClosedLoopRelation(system=system, regulator=regulator, goal=goal)


def outputs_trajectory(outputs):
    """Wrap a raw output list as a trajectory for the entropy estimators."""
    n = len(outputs)
    return Trajectory(("s",) * n, ("r",) * n, tuple(map(float, outputs)), (0.0,) * n,
                      ("p",) * n, ("q",) * n)


def first_tick(rel, disturbance):
    """The one-tick trajectory of ``rel`` under ``disturbance``."""
    traj, _ = run_relation_carry(rel, [disturbance], 1)
    return traj


# --- stepping ---------------------------------------------------------------


def test_identity_system_stays_at_fixed_point():
    rel = identity_relation()
    stream = [("d0", "d1")] * 10
    traj = run_relation(rel, stream, 10)
    assert all(y == 0.0 for y in traj.output)
    assert all(e == 0.0 for e in traj.error)


def test_toggle_closed_loop_reaches_goal_within_two_ticks():
    # Hand enumeration: s1 emits 1 (error 1); regulator answers "correct",
    # forcing s0; from tick 1 on the output is 0 and stays there.
    rel = toggle_benchmark(mode=LoopMode.CLOSED)
    traj = run_relation(rel, [("kick", "-")] * 8, 8)
    errors = list(traj.error)
    assert errors[0] == 1.0
    assert errors[1:] == [0.0] * 7
    # error is non-increasing after the first correction tick
    assert all(a >= b for a, b in zip(errors, errors[1:]))


def test_toggle_feedforward_oscillates_forever():
    rel = toggle_benchmark(mode=LoopMode.FEEDFORWARD)
    traj = run_relation(rel, [("kick", "-")] * 9, 9)
    assert list(traj.output) == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]


def test_feedforward_isolation():
    # In feedforward mode the system state sequence is a pure function of
    # (initial state, system disturbances): swap in a trivial regulator and
    # the system trajectory is unchanged.
    rel = toggle_benchmark(mode=LoopMode.FEEDFORWARD)
    lazy = Regulator(
        states=StateSet(("z",)),
        observations=frozenset({0.0, 1.0}),
        policy=lambda y, r: ("z", "idle"),
    )
    rel_lazy = replace(rel, regulator=lazy, r_state="z")
    stream = [("kick", "-")] * 12
    a = run_relation(rel, stream, 12).s_state
    b = run_relation(rel_lazy, stream, 12).s_state
    assert a == b


def test_observation_outside_range_raises_structured_error():
    system = DiscreteSystem(
        states=StateSet(("s",)),
        input_alphabet=("idle",),
        disturbance_alphabet=("-",),
        transition=lambda s, u, d: "s",
        emission=lambda s: 42.0,
        idle_input="idle",
    )
    regulator = Regulator(
        states=StateSet(("r",)),
        observations=frozenset({0.0}),
        policy=lambda y, r: ("r", "idle"),
    )
    rel = ClosedLoopRelation(system=system, regulator=regulator, goal=lambda y: True)
    with pytest.raises(DestroyedVarietyError) as exc_info:
        run_relation_carry(rel, [("-", "-")], 1)
    assert exc_info.value.symbol == 42.0
    assert "42.0" in str(exc_info.value)


def test_regulator_disturbance_is_carried_and_changes_nothing():
    rel = toggle_benchmark()
    calm, flip = first_tick(rel, ("kick", "calm")), first_tick(rel, ("kick", "flip"))
    assert flip.rho == ("flip",)
    assert replace(flip, rho=calm.rho) == calm


# --- running ------------------------------------------------------------------


def test_single_tick_run():
    traj = run_relation(toggle_benchmark(), [("kick", "-")], 1)
    assert len(traj) == 1
    assert csv_text(traj).splitlines()[1].startswith("0,")


def test_run_requires_enough_disturbances():
    with pytest.raises(ValueError, match="stream"):
        run_relation(toggle_benchmark(), [("kick", "-")], 5)
    with pytest.raises(ValueError):
        run_relation(toggle_benchmark(), [], 0)


def test_determinism_byte_for_byte():
    stream = [("kick", "-")] * 50
    a = csv_text(run_relation(toggle_benchmark(), stream, 50))
    b = csv_text(run_relation(toggle_benchmark(), stream, 50))
    assert a == b


def test_run_composes_50_plus_50_equals_100():
    stream = [("kick", "-")] * 100
    full = run_relation(toggle_benchmark(), stream, 100)
    first, mid = run_relation_carry(toggle_benchmark(), stream[:50], 50)
    second, _ = run_relation_carry(mid, stream[50:], 50)
    assert full == Trajectory(*(getattr(first, f.name) + getattr(second, f.name)
                                for f in fields(Trajectory)))


def test_internal_model_frequencies_sum_to_one():
    rel = toggle_benchmark()
    stream = [("kick", "-")] * 40
    _, final = run_relation_carry(rel, stream, 40)
    est = final.model.estimate
    assert abs(sum(est.values()) - 1.0) <= 1e-12
    # s0 dominates once the loop settles
    assert est["s0"] > 0.9


def observe_state(model, s_state):
    """The internal model after it records one observed system state."""
    return replace(model, window=(model.window + (s_state,))[-model.horizon:])


def test_run_leaves_the_model_one_observe_state_per_tick_would():
    rel = replace(toggle_benchmark(mode=LoopMode.FEEDFORWARD), model=InternalModel(horizon=5))
    traj, final = run_relation_carry(rel, [("kick", "-")] * 12, 12)
    model = rel.model
    for s_state in traj.s_state:
        model = observe_state(model, s_state)
    assert final.model == model


def test_internal_model_window_caps_at_horizon():
    m = InternalModel(horizon=3)
    for s in ("a", "b", "c", "d"):
        m = observe_state(m, s)
    assert m.window == ("b", "c", "d")
    assert m.estimate == {"b": 1 / 3, "c": 1 / 3, "d": 1 / 3}


def test_trajectory_columns_must_have_equal_length():
    with pytest.raises(ValueError, match="length"):
        Trajectory(("s", "s"), ("r", "r"), (0.0,), (0.0, 0.0), ("p", "p"), ("q", "q"))
    lines = csv_text(outputs_trajectory([0.0, 1.0, 2.0])).splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]


# --- serialization ---------------------------------------------------------------


def test_csv_header_and_precision():
    traj = outputs_trajectory([1.0 / 3.0])
    text = csv_text(traj)
    lines = text.splitlines()
    assert lines[0] == "tick,s_state,r_state,output,error,phi,rho"
    assert "0.33333333333333331" in lines[1]
    assert text.endswith("\n")
    assert "\r" not in text


def test_csv_matches_per_record_formatting_for_any_field_types():
    # The record line as an f-string writes it: "{:.17g}" forced on output and
    # error (ints, bools and -0.0 included), "{}" on the symbols (floats too).
    rows = [
        (0.1, "s", 1.0 / 3.0, 0.0, "p", "q"),
        (True, 1, 10**17, -0.0, 0.5, None),
        ("é", (1, 2), True, float("nan"), -0.0, 1e-300),
        (1.0, "s", -2, float("-inf"), "p", 7),
    ]
    traj = Trajectory(*zip(*rows))
    want = "tick,s_state,r_state,output,error,phi,rho\n" + "".join(
        f"{tick},{s},{r},{y:.17g},{e:.17g},{phi},{rho}\n"
        for tick, (s, r, y, e, phi, rho) in enumerate(rows))
    assert csv_text(traj) == want


# --- entropy scores ---------------------------------------------------------------


def test_point_score_constant_is_zero():
    assert point_regulation_score(outputs_trajectory([2.5] * 64), bins=8) == 0.0


def test_point_score_uniform_cycle_exact():
    outputs = [float(k % 8) for k in range(800)]
    assert point_regulation_score(outputs_trajectory(outputs), bins=8) == 3.0


def test_point_score_uniform_monte_carlo():
    rng = SplitMix64(31337)
    outputs = [rng.next_float() for _ in range(100_000)]
    h = point_regulation_score(outputs_trajectory(outputs), bins=8)
    assert abs(h - 3.0) <= 0.01


def test_point_score_errors():
    with pytest.raises(ValueError):
        point_regulation_score(outputs_trajectory([]), bins=8)
    with pytest.raises(ValueError):
        point_regulation_score(outputs_trajectory([1.0]), bins=1)


def test_path_score_constant_is_zero():
    traj = outputs_trajectory([1.0] * 32)
    for order in (1, 2, 3):
        assert path_regulation_score(traj, order=order, bins=4) == 0.0


def test_path_score_deterministic_alternation_is_zero():
    traj = outputs_trajectory([0.0, 1.0] * 50)
    assert path_regulation_score(traj, order=1, bins=2) == pytest.approx(0.0, abs=1e-12)


def test_path_score_iid_binary_monte_carlo():
    rng = SplitMix64(2024)
    outputs = [float(rng.next_below(2)) for _ in range(100_000)]
    h = path_regulation_score(outputs_trajectory(outputs), order=1, bins=2)
    assert abs(h - 1.0) <= 0.02


def test_path_score_too_short():
    with pytest.raises(ValueError):
        path_regulation_score(outputs_trajectory([1.0, 2.0]), order=2, bins=2)


@settings(max_examples=100)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=300),
    st.integers(2, 8),
)
@example([0.0, 5e-324], 2)  # the range's width underflows to 0
@example([-1.7e308, 1.7e308], 2)  # the range overflows to inf
def test_entropy_ordering_universal(outputs, bins):
    traj = outputs_trajectory(outputs)
    point = point_regulation_score(traj, bins=bins)
    path = path_regulation_score(traj, order=1, bins=bins)
    assert 0.0 <= path <= point + 1e-9


def test_an_overflowing_range_is_binned_as_its_half():
    outputs = [-1.7e308, -1e308, 0.0, 1e308, 1.7e308]
    halves = [y / 2 for y in outputs]
    assert _bin_outputs(outputs, 4).tolist() == _bin_outputs(halves, 4).tolist() == [0, 0, 2, 3, 3]
    traj = outputs_trajectory(outputs)
    assert point_regulation_score(traj, bins=4) == pytest.approx(1.5219280948873621)


def counter_point_score(outputs, bins):
    """``point_regulation_score`` as a loop over Python floats and a Counter."""
    def bin_outputs(outputs):
        lo, hi = min(outputs), max(outputs)
        if hi == lo:
            return [0] * len(outputs)
        width = (hi - lo) / bins
        if width in (0.0, math.inf) and -math.inf < lo < hi < math.inf:
            scale = 0.5 if width else 2.0**1000
            return bin_outputs([y * scale for y in outputs])
        return [min(int((y - lo) / width), bins - 1) for y in outputs]

    counts = Counter(bin_outputs(outputs))
    total = sum(counts.values())
    h = 0.0
    for c in counts.values():  # in the order each bin first occurs
        h -= c / total * math.log2(c / total)
    return h


FINITE = st.floats(allow_nan=False, allow_infinity=False)
OUTPUTS = st.one_of(
    FINITE.flatmap(lambda y: st.lists(st.just(y), min_size=1, max_size=40)),  # constant
    st.lists(FINITE, min_size=1, max_size=200),  # ranges that overflow among them
    st.lists(st.integers(-60, 60).map(lambda k: k * 5e-324), min_size=1, max_size=200),
    # A few distinct values, repeated, so bins recur in any first-occurrence order.
    st.lists(FINITE, min_size=2, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300)),
)


@settings(max_examples=300)
@given(OUTPUTS, st.integers(2, 64))
@example([3.0] * 8 + [2.0] * 8 + [1.0] * 7 + [0.0] * 4, 4)  # sorted bin order sums differently
@example([0.0, 5e-324], 2)  # the range's width underflows to 0
@example([-1.7e308, 1.7e308], 64)  # the range overflows to inf
def test_point_score_matches_a_counter_bit_for_bit(outputs, bins):
    got = point_regulation_score(outputs_trajectory(outputs), bins=bins)
    assert struct.pack("<d", got) == struct.pack("<d", counter_point_score(outputs, bins))


@settings(max_examples=200)
@given(st.lists(st.floats(), min_size=1, max_size=50),
       st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 50), st.integers(2, 64))
@example([1.0], math.nan, 1, 2)  # a nan among equal outputs once scored 0
@example([math.inf], math.inf, 0, 2)  # so did constant infinite outputs
def test_point_score_rejects_outputs_not_finite(outputs, bad, at, bins):
    outputs = [*outputs[:at], bad, *outputs[at:]]
    with pytest.raises(ValueError, match="outputs must be finite"):
        point_regulation_score(outputs_trajectory(outputs), bins=bins)
