"""Force-field adaptation, phase protocols, and the color-gradient vehicle.

Fixture constants here (learning rates, vehicle gains, goal radii) were
fixed by a parameter sweep before the tests were frozen; the protocol
metrics are asserted against those swept values.
"""

import decimal
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from regulab import procedural
from regulab.procedural import (
    MAX_TRIALS,
    TRACKING_GAIN,
    CmykField,
    CmykPoint,
    CurlField,
    LurSchedule,
    ReachLearner,
    Vehicle,
    cmyk_distance,
    equilateral_field,
    rotation_matrix,
    run_expanding_goal,
    run_lur,
    run_trial,
    _fma,
    sample_cmyk,
    vehicle_step,
)
from regulab.rng import SplitMix64

ORIGIN = np.zeros(2)
EAST = np.array([1.0, 0.0])

# Learner profile for fast unit-level convergence checks; the slow default
# profile is reserved for the phase-protocol experiments.
FAST = dict(rate=0.35, slow_rate=0.035)


# --- fused multiply-add ------------------------------------------------------

# Exact for any a * b + c of doubles (at most about 2500 digits); the result
# is rounded once, by float(), and IEEE's infinities, nans and signed zeros
# follow decimal's rules, which are IEEE's.
EXACT = decimal.Context(prec=3000, traps=[decimal.Inexact])


def reference_fma(a, b, c):
    return float(EXACT.add(EXACT.multiply(decimal.Decimal(a), decimal.Decimal(b)),
                           decimal.Decimal(c)))


@st.composite
def near_cancellations(draw):
    """c at or next to -(a * b) rounded, where fused and unfused results part."""
    a, b = draw(st.floats(allow_nan=False)), draw(st.floats(allow_nan=False))
    c = -(a * b)
    if draw(st.booleans()):
        c = math.nextafter(c, draw(st.sampled_from([-math.inf, math.inf])))
    return a, b, c


ONE = 1.0 + 2.0**-52  # the double after 1


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.tuples(st.floats(), st.floats(), st.floats()), near_cancellations()))
# Signed zeros: a zero sum is -0 only when both addends are -0.
@example((0.0, -1.0, -0.0)).via("signed zero")
@example((-0.0, -0.0, -0.0)).via("signed zero")
@example((0.0, 1.0, -0.0)).via("signed zero")
@example((1.0, 1.0, -1.0)).via("signed zero")
@example((-1.0, 1.0, 1.0)).via("signed zero")
@example((5e-324, -5e-324, -0.0)).via("signed zero")
# Infinities and nans.
@example((math.inf, 0.0, 1.0)).via("inf")
@example((math.inf, 2.0, -math.inf)).via("inf")
@example((-math.inf, -2.0, 1.0)).via("inf")
@example((1e300, 1e300, -math.inf)).via("inf")
@example((1e308, 10.0, math.inf)).via("inf")
@example((math.nan, 1.0, 1.0)).via("nan")
@example((1.0, 1.0, math.nan)).via("nan")
@example((0.0, math.nan, 0.0)).via("nan")
# Operands whose split overflows, and products that overflow.
@example((2.0**1000, 2.0**-100, 1.0)).via("split overflow")
@example((1.7976931348623157e308, 0.5, -8e307)).via("split overflow")
@example((2.0**996, 2.0**-996, -1.0)).via("split overflow")
@example((1e308, 10.0, -1e308)).via("overflow")
@example((1e308, 2.0, -1.7e308)).via("finite result of an overflowing product")
@example((2.0**511, 2.0**511, 1.7976931348623157e308)).via("overflowing sum")
@example((2.0**510, 2.0**510, 2.0**1023)).via("overflowing sum")
@example((2.0**509, 2.0**509, 1.7976931348623157e308)).via("overflowing sum")
# Products below 2**-969, where the low half of TwoProduct underflows.
@example((2.0**-500, 2.0**-480, 0.0)).via("underflow")
@example((3e-200, 7e-200, 0.0)).via("underflow")
@example((1e-300, 1e-30, -1e-330)).via("underflow")
@example((2.0**-600 * ONE, 2.0**-400 * ONE, 2.0**-1000)).via("underflow")
@example((5e-324, 0.5, 0.0)).via("underflow to a tie")
@example((5e-324, 1.5, 0.0)).via("underflow to a tie")
# Near-cancellations and ties.
@example((ONE, ONE, -(1.0 + 2.0**-51))).via("cancellation")
@example((0.1, 10.0, -1.0)).via("cancellation")
@example((3.0, 0.1, -(3.0 * 0.1) * (1 - 2.0**-53))).via("cancellation")
@example((3.0, 0.1, -(3.0 * 0.1) * (1 + 2.0**-52))).via("cancellation")
@example((1.0 + 2.0**-27, 1.0 + 2.0**-26, -(2.0**-26 + 2.0**-27))).via("tie to even, down")
@example((1.0 + 2.0**-27, 1.0 + 2.0**-26, 2.0**-52 - (2.0**-26 + 2.0**-27))).via("tie, up")
def test_fma_rounds_the_exact_result_once(abc):
    assert repr(_fma(*abc)) == repr(reference_fma(*abc))


# --- field -------------------------------------------------------------------


def test_zero_gain_field_is_null():
    f = CurlField(gain=0.0, angle=123.0)
    assert np.array_equal(f.matrix @ np.array([3.0, -4.0]), np.zeros(2))


def test_quarter_turn_field():
    f = CurlField(gain=1.0, angle=90.0)
    force = f.matrix @ EAST
    assert force == pytest.approx([0.0, 1.0], abs=1e-12)


def test_opposite_angles_cancel():
    v = np.array([0.7, -1.3])
    total = CurlField(1.5, 0.0).matrix @ v + CurlField(1.5, 180.0).matrix @ v
    assert np.max(np.abs(total)) <= 1e-12


def test_force_magnitude_scales_with_gain():
    v = np.array([2.0, 1.0])
    f = CurlField(2.5, 37.0).matrix @ v
    assert np.linalg.norm(f) == pytest.approx(2.5 * np.linalg.norm(v), rel=1e-12)


def test_angle_wraps_mod_360():
    assert CurlField(1.0, 450.0).angle == 90.0
    with pytest.raises(ValueError):
        CurlField(-1.0, 0.0)


@pytest.mark.parametrize("gain, angle", [(math.nan, 0.0), (math.inf, 0.0),
                                         (1.0, math.nan), (1.0, math.inf)])
def test_curl_field_rejects_nonfinite(gain, angle):
    with pytest.raises(ValueError):
        CurlField(gain, angle)


@pytest.mark.parametrize("rate", [0.0, -0.1, math.nan, math.inf])
def test_reach_learner_rejects_nonpositive_or_nonfinite_rate(rate):
    with pytest.raises(ValueError, match="learning rate"):
        ReachLearner(rate=rate)


@pytest.mark.parametrize("slow_rate", [-1e-6, -1.0, math.nan, math.inf])
def test_reach_learner_rejects_a_slow_rate_not_finite_and_nonnegative(slow_rate):
    with pytest.raises(ValueError, match="slow rate must be finite and >= 0"):
        ReachLearner(slow_rate=slow_rate)
    ReachLearner(slow_rate=0.0)


# --- single trials -------------------------------------------------------------


def test_null_field_null_learner_zero_error():
    _, err = run_trial(ReachLearner(), CurlField(0.0, 0.0), ORIGIN, EAST)
    assert err == 0.0


def test_perfect_compensation_zero_error():
    f = CurlField(gain=1.3, angle=90.0)
    learner = ReachLearner(fast=f.matrix.copy(), slow=np.zeros((2, 2)))
    _, err = run_trial(learner, f, ORIGIN, EAST)
    assert err == 0.0


def test_repeated_trials_strictly_decrease_until_small():
    learner = ReachLearner(**FAST)
    f = CurlField(gain=1.0, angle=90.0)
    errs = []
    for _ in range(50):
        learner, err = run_trial(learner, f, ORIGIN, EAST)
        errs.append(err)
    above = [e for e in errs if e > 1e-3]
    assert all(b < a for a, b in zip(above, above[1:]))
    assert min(errs) < 1e-3


def test_run_trial_validation():
    with pytest.raises(ValueError):
        run_trial(ReachLearner(), CurlField(1.0, 0.0), ORIGIN, ORIGIN)


@pytest.mark.parametrize("noise", [-0.02, -math.inf, math.nan, math.inf])
def test_run_lur_rejects_a_noise_not_finite_and_nonnegative(monkeypatch, noise):
    # A negative noise was once dropped: the reach ran noiseless.
    monkeypatch.setattr(procedural, "SplitMix64", lambda seed: pytest.fail("a generator was made"))
    with pytest.raises(ValueError, match="noise must be finite and >= 0"):
        run_lur(ReachLearner(), LurSchedule(((0.0, 5),)), noise=noise)


@pytest.mark.parametrize("count", [0, 119, 121])
def test_run_trial_rejects_kicks_not_two_per_step(count):
    with pytest.raises(ValueError, match=f"60 steps need 120 kicks, got {count}"):
        run_trial(ReachLearner(), CurlField(1.0, 0.0), ORIGIN, EAST, kicks=[0.0] * count)


NOT_POSITIVE_FINITE = [0.0, -0.01, math.nan, math.inf]


@pytest.mark.parametrize("dt", NOT_POSITIVE_FINITE)
def test_step_size_must_be_positive_and_finite(dt):
    field = equilateral_field()
    with pytest.raises(ValueError, match="dt"):
        vehicle_step(fixture_vehicle(field), field, dt)


@pytest.mark.parametrize("name, value", [
    *(("sensor_offset", v) for v in NOT_POSITIVE_FINITE),
    *(("speed_gain", v) for v in NOT_POSITIVE_FINITE),
    ("turn_gain", -1.0), ("turn_gain", math.nan), ("turn_gain", math.inf),
    ("heading", math.nan), ("position", np.array([0.5, math.nan])), ("position", np.zeros(3)),
])
def test_vehicle_rejects_bad_offset_or_gain(name, value):
    with pytest.raises(ValueError):
        fixture_vehicle(equilateral_field(), **{name: value})


@pytest.mark.parametrize("radius", [-1.0, -5e-324, math.nan])
def test_vehicle_rejects_a_negative_or_nan_goal_radius(radius):
    with pytest.raises(ValueError, match="goal radius must be >= 0"):
        fixture_vehicle(equilateral_field(), goal_radius=radius)
    fixture_vehicle(equilateral_field(), goal_radius=0.0)


def reference_run_trial(l, f, start, target, steps, dt, noise=0.0, rng=None):
    """``run_trial`` as a loop of numpy vector operations, one draw per kick."""
    span = target - start
    v_des = span / (steps * dt)
    field_m = f.matrix
    fast, slow = l.fast.copy(), l.slow.copy()
    pos, pos_des, vel = start.copy(), start.copy(), v_des.copy()
    dev_sum = 0.0
    for _ in range(steps):
        residual = field_m @ vel - (fast + slow) @ vel
        felt = residual
        if noise > 0.0 and rng is not None:
            felt = residual + noise * np.array(
                [2.0 * rng.next_float() - 1.0, 2.0 * rng.next_float() - 1.0]
            )
        update = np.outer(felt, vel) / (float(vel @ vel) + 1e-12)
        fast += l.rate * update
        slow += l.slow_rate * update
        vel = vel + dt * (residual + TRACKING_GAIN * (v_des - vel))
        pos = pos + dt * vel
        pos_des = pos_des + dt * v_des
        dev_sum += float(np.linalg.norm(pos - pos_des))
    fast *= l.fast_retention
    return replace(l, fast=fast, slow=slow), dev_sum / steps


@pytest.mark.parametrize("seed", range(6))
def test_run_trial_matches_numpy_reference_bit_for_bit(seed):
    r = np.random.default_rng(seed)
    learner = ReachLearner(rate=float(r.uniform(0.001, 0.4)), slow_rate=float(r.uniform(0, 0.04)),
                           fast_retention=float(r.uniform(0.5, 1.0)),
                           fast=r.standard_normal((2, 2)), slow=0.1 * r.standard_normal((2, 2)))
    f = CurlField(float(r.uniform(0, 3)), float(r.uniform(0, 360)))
    start = r.standard_normal(2)
    target = start + r.standard_normal(2)
    noise = (0.0, 0.02, 0.5)[seed % 3]
    rngs = SplitMix64(seed), SplitMix64(seed)
    kicks = (noise * (2.0 * rngs[0].floats(120) - 1.0)).tolist() if noise else None
    got_l, got = run_trial(learner, f, start, target, kicks)
    want_l, want = reference_run_trial(learner, f, start, target, 60, 0.01, noise, rngs[1])
    assert got == want
    assert got_l.fast.tobytes() == want_l.fast.tobytes()
    assert got_l.slow.tobytes() == want_l.slow.tobytes()
    assert rngs[0]._state == rngs[1]._state


def test_delta_rule_converges_to_field_matrix():
    # retention 1.0 isolates the pure delta rule: comp -> gain * Rot(angle)
    for angle in (0.0, 90.0, 37.0):
        learner = ReachLearner(rate=0.35, slow_rate=0.035, fast_retention=1.0)
        f = CurlField(gain=1.0, angle=angle)
        dirs = [
            np.array([math.cos(2 * math.pi * k / 8), math.sin(2 * math.pi * k / 8)])
            for k in range(8)
        ]
        for t in range(400):
            learner, _ = run_trial(learner, f, ORIGIN, dirs[t % 8])
        assert np.linalg.norm(learner.comp - f.matrix) < 1e-3


def test_rotational_equivariance():
    # A curl field commutes with global rotations (conjugating a 2-D
    # rotation matrix leaves it unchanged), so rotating start and target
    # while keeping the field produces the identical error.
    def trial_err(offset):
        rot = rotation_matrix(offset)
        f = CurlField(gain=1.0, angle=30.0)
        learner = ReachLearner(rate=0.1, slow_rate=0.01)
        start = rot @ np.array([0.1, 0.2])
        target = rot @ np.array([1.1, 0.2])
        _, err = run_trial(learner, f, start, target)
        return err

    base = trial_err(0.0)
    for offset in (45.0, 90.0, 180.0, 213.7):
        assert abs(trial_err(offset) - base) <= 1e-9


# --- phase protocols --------------------------------------------------------------


def test_same_angle_schedule_no_interference():
    sched = LurSchedule(((0.0, 150), (0.0, 150), (0.0, 150)))
    learner = ReachLearner(rate=0.35, slow_rate=0.035, fast_retention=1.0)
    res = run_lur(learner, sched, noise=0.0, gain=1.0, seed=1)
    assert abs(res.interference) < 1e-6


def test_conflicting_phase_interferes():
    sched = LurSchedule(((0.0, 200), (90.0, 200), (0.0, 200)))
    res = run_lur(ReachLearner(), sched, noise=0.02, gain=1.0, seed=0)
    assert res.interference > 0


def test_relearning_is_faster_napkin_version():
    # small-scale replica of the acceptance protocol
    sched = LurSchedule(((0.0, 200), (90.0, 200), (0.0, 200)))
    neg = 0
    for seed in range(5):
        res = run_lur(ReachLearner(), sched, noise=0.02, gain=1.0, seed=seed)
        neg += res.savings < 0
    assert neg == 5


def per_trial_run_lur(l, sched, noise, gain, rng):
    """``run_lur`` drawing each trial's 120 kicks from ``rng`` as its reach
    begins, one call per trial."""
    dirs = [np.array([math.cos(2 * math.pi * k / 8), math.sin(2 * math.pi * k / 8)])
            for k in range(8)]
    curves = []
    t = 0
    for angle, trials in sched.phases:
        fld = CurlField(gain=gain, angle=angle)
        errs = []
        for _ in range(trials):
            kicks = (noise * (2.0 * rng.floats(120) - 1.0)).tolist() if noise > 0.0 else None
            l, err = run_trial(l, fld, ORIGIN, dirs[t % 8], kicks=kicks)
            errs.append(err)
            t += 1
        curves.append(tuple(errs))
    criterion = curves[0][-1]

    def reach(curve):
        return next((i + 1 for i, e in enumerate(curve) if e <= criterion), len(curve) + 1)

    return curves, curves[1][0] - criterion, float(reach(curves[2]) - reach(curves[0]))


@pytest.mark.parametrize("noise", [0.0, 0.02, 0.5])
@pytest.mark.parametrize("phases", [
    ((0.0, 1), (90.0, 33), (0.0, 34), (45.0, 35), (0.0, 100)),
    ((0.0, 35), (90.0, 100), (0.0, 33), (90.0, 1), (0.0, 34)),
], ids=["ascending", "mixed"])
def test_run_lur_draws_the_kicks_of_per_trial_draws(monkeypatch, noise, phases):
    # Phases of one trial, of one 34-trial kick block and either side of it,
    # and of several blocks and a part.
    made = []

    def recorded(seed):
        made.append(SplitMix64(seed))
        return made[-1]

    monkeypatch.setattr(procedural, "SplitMix64", recorded)
    sched = LurSchedule(phases)
    got = run_lur(ReachLearner(), sched, noise=noise, gain=1.0, seed=7)
    rng = SplitMix64(7)
    curves, interference, savings = per_trial_run_lur(ReachLearner(), sched, noise, 1.0, rng)
    assert [np.array(c).tobytes() for c in got.phase_errors] == [
        np.array(c).tobytes() for c in curves]
    assert np.array([got.interference, got.savings]).tobytes() == np.array(
        [interference, savings]).tobytes()
    assert [g._state for g in made] == [rng._state]


@pytest.mark.parametrize("angles, interference, savings", [
    ((0.0,), type(None), type(None)),
    ((0.0, 90.0), float, type(None)),
    ((0.0, 90.0, 0.0), float, float),
])
def test_a_metric_the_schedule_cannot_define_is_none(angles, interference, savings):
    # Interference needs 2 phases and savings 3; both were once NaN without them.
    res = run_lur(ReachLearner(), LurSchedule(tuple((angle, 5) for angle in angles)), seed=0)
    assert (type(res.interference), type(res.savings)) == (interference, savings)


def test_schedule_validation():
    with pytest.raises(ValueError):
        LurSchedule(())
    with pytest.raises(ValueError):
        LurSchedule(((0.0, 0),))
    with pytest.raises(ValueError, match="at most"):
        LurSchedule(((0.0, MAX_TRIALS), (90.0, 1)))


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_schedule_rejects_a_nonfinite_angle_in_any_phase(angle):
    with pytest.raises(ValueError, match="angle must be finite"):
        LurSchedule(((0.0, 10), (angle, 5)))


# --- CMYK field ----------------------------------------------------------------------


def test_vertex_colors_are_pure():
    field = equilateral_field()
    assert sample_cmyk(field, field.vertices[0]) == CmykPoint(1.0, 0.0, 0.0, 0.0)
    assert sample_cmyk(field, field.vertices[1]) == CmykPoint(0.0, 1.0, 0.0, 0.0)
    assert sample_cmyk(field, field.vertices[2]) == CmykPoint(0.0, 0.0, 1.0, 0.0)


def test_centroid_color():
    field = equilateral_field()
    centroid = field.vertices.mean(axis=0)
    color = sample_cmyk(field, centroid)
    assert color.c == pytest.approx(1 / 3, abs=1e-12)
    assert color.m == pytest.approx(1 / 3, abs=1e-12)
    assert color.y == pytest.approx(1 / 3, abs=1e-12)
    assert color.k == pytest.approx(2 / 3, abs=1e-12)


@settings(max_examples=200)
@given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
def test_barycentric_identity_interior(u, v):
    # map the unit square into the triangle's interior coordinates
    field = equilateral_field()
    a, b, c = field.vertices
    w1, w2 = u * (1 - v), v * (1 - u)
    pos = a + w1 * (b - a) + w2 * (c - a)
    color = sample_cmyk(field, pos)
    assert color.c + color.m + color.y == pytest.approx(1.0, abs=1e-12)


def test_outside_positions_clamp_to_boundary():
    field = equilateral_field()
    far = np.array([-5.0, -5.0])
    color = sample_cmyk(field, far)
    # nearest boundary point of (-5,-5) is the C vertex at the origin
    assert color.c == pytest.approx(1.0, abs=1e-12)


def test_degenerate_triangle_rejected():
    from regulab.procedural import CmykField

    with pytest.raises(ValueError, match="collinear"):
        CmykField(vertices=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))


# --- vehicle -------------------------------------------------------------------------


def fixture_vehicle(field, **overrides):
    centroid = field.vertices.mean(axis=0)
    to_c = field.vertices[0] - centroid
    defaults = dict(
        position=centroid,
        heading=math.atan2(to_c[1], to_c[0]),
        sensor_offset=0.05,
        speed_gain=0.5,
        turn_gain=8.0,
        target=sample_cmyk(field, field.vertices[0]),
        goal_radius=0.05,
    )
    defaults.update(overrides)
    return Vehicle(**defaults)


def test_vehicle_at_target_color_stays_put():
    field = equilateral_field()
    v = fixture_vehicle(field, position=field.vertices[0].copy(), heading=0.3)
    stepped = vehicle_step(v, field, dt=0.02)
    # body color equals the target, so the drive is exactly zero
    assert np.array_equal(stepped.position, v.position)


def test_equal_sensor_readings_keep_heading():
    # symmetric start on the median aimed at the C vertex: both sensors read
    # identical distances, heading stays fixed
    field = equilateral_field()
    v = fixture_vehicle(field)
    stepped = vehicle_step(v, field, dt=0.02)
    assert stepped.heading == pytest.approx(v.heading, abs=1e-12)


def test_zero_turn_gain_rolls_straight():
    field = equilateral_field()
    v = fixture_vehicle(field, turn_gain=0.0, heading=0.35)
    for _ in range(50):
        v = vehicle_step(v, field, dt=0.02)
    assert v.heading == pytest.approx(0.35, abs=1e-12)


def test_vehicle_monotone_approach_and_goal_entry():
    field = equilateral_field()
    v = fixture_vehicle(field)
    d_prev = cmyk_distance(sample_cmyk(field, v.position), v.target)
    reached_at = None
    for step in range(10_000):
        v = vehicle_step(v, field, dt=0.02)
        d = v.distance
        assert d <= d_prev + 1e-12
        d_prev = d
        if d <= v.goal_radius:
            reached_at = step
            break
    assert reached_at is not None


def test_vehicle_recovers_from_bad_heading():
    field = equilateral_field()
    centroid = field.vertices.mean(axis=0)
    v = fixture_vehicle(field, position=centroid + np.array([0.2, -0.05]), heading=2.5)
    reached = False
    for _ in range(10_000):
        v = vehicle_step(v, field, dt=0.02)
        if v.distance <= v.goal_radius:
            reached = True
            break
    assert reached


def reference_sample(field, pos):
    """``sample_cmyk`` as numpy vector operations, one point at a time."""
    a, b, c = field.vertices

    def bary(p):
        uv = np.linalg.solve(np.column_stack([b - a, c - a]), p - a)
        return np.array([1.0 - uv[0] - uv[1], uv[0], uv[1]])

    p = np.asarray(pos, dtype=float)
    if not np.all(bary(p) >= -1e-12):
        best, best_d = None, math.inf
        for i in range(3):
            s, e = field.vertices[i], field.vertices[(i + 1) % 3]
            side = e - s
            t = float(np.clip((p - s) @ side / (side @ side), 0.0, 1.0))
            q = s + t * side
            d = float(np.linalg.norm(p - q))
            if d < best_d:
                best, best_d = q, d
        p = best
    cc, m, y = np.clip(bary(p), 0.0, 1.0)
    return p, CmykPoint(float(cc), float(m), float(y), float(1.0 - max(cc, m, y)))


def reference_vehicle_step(v, field, dt):
    h = v.heading
    fwd = np.array([math.cos(h), math.sin(h)])
    left_at = v.position + v.sensor_offset * np.array([math.sin(h), -math.cos(h)])
    right_at = v.position + v.sensor_offset * np.array([-math.sin(h), math.cos(h)])
    d_left = cmyk_distance(reference_sample(field, left_at)[1], v.target)
    d_right = cmyk_distance(reference_sample(field, right_at)[1], v.target)
    d_body = cmyk_distance(reference_sample(field, v.position)[1], v.target)
    speed = v.speed_gain * d_body
    new_heading = h + dt * v.turn_gain * (d_left - d_right)
    new_pos, _ = reference_sample(field, v.position + dt * speed * fwd)
    return replace(v, position=new_pos, heading=new_heading)


@pytest.mark.parametrize("seed", range(4))
def test_vehicle_matches_numpy_reference_bit_for_bit(seed):
    # A coarse step and a far target drive the vehicle into the edges, so
    # the clamp path runs as well as the interior one.
    r = np.random.default_rng(seed)
    field = equilateral_field() if seed % 2 else CmykField(r.uniform(-1, 1, (3, 2)))
    v = fixture_vehicle(field, position=field.vertices.mean(axis=0), heading=float(r.uniform(-3, 3)),
                        sensor_offset=float(r.uniform(0.01, 0.3)), turn_gain=float(r.uniform(0, 20)),
                        target=sample_cmyk(field, field.vertices[seed % 3]))
    want = v
    for _ in range(150):
        v = vehicle_step(v, field, 0.1)
        want = reference_vehicle_step(want, field, 0.1)
        assert np.array(v.position).tobytes() == np.array(want.position).tobytes()
        assert v.heading == want.heading
        assert v == replace(v)  # every field as __init__ makes it
        assert v.color == reference_sample(field, want.position)[1]
        assert v.distance == cmyk_distance(v.color, v.target)
    for pos in [*r.uniform(-1.5, 1.5, (200, 2)), *field.vertices, np.array([-0.0, 0.0])]:
        assert sample_cmyk(field, pos) == reference_sample(field, pos)[1]
        point = field._settle(*pos.tolist())[0]
        assert np.array(point).tobytes() == reference_sample(field, pos)[0].tobytes()


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` to count its calls; returns the running count."""
    calls = [0]
    real = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_step_records_the_body_distance_once(monkeypatch):
    field = equilateral_field()
    v = fixture_vehicle(field, position=(0.2, 0.1), heading=1.0)
    assert v.color is None and v.distance is None
    distances = count_calls(monkeypatch, procedural, "_distance")
    path = [v := vehicle_step(v, field, 0.02) for _ in range(50)]
    # Two sensors and the new position a step; the first step also solves its body.
    assert distances[0] == 3 * 50 + 1
    monkeypatch.undo()
    for v in path:
        assert v.distance == cmyk_distance(v.color, v.target)
        assert v.color == sample_cmyk(field, v.position)
    moved = replace(v, target=sample_cmyk(field, field.vertices[1]))
    assert moved.color is None and moved.distance is None


# --- expanding goals --------------------------------------------------------------------


def stage_sets(field):
    verts = field.vertices
    mid = lambda a, b: (a + b) / 2.0
    g1 = (sample_cmyk(field, verts[0]),)
    g2 = g1 + (sample_cmyk(field, verts[1]), sample_cmyk(field, verts[2]))
    g3 = g2 + (
        sample_cmyk(field, mid(verts[0], verts[1])),
        sample_cmyk(field, mid(verts[1], verts[2])),
        sample_cmyk(field, mid(verts[0], verts[2])),
    )
    return [g1, g2, g3]


def test_single_target_stage_reduces_to_navigation():
    field = equilateral_field()
    v = fixture_vehicle(field, goal_radius=0.12)
    _, reports = run_expanding_goal(v, field, [stage_sets(field)[0]], T=4000, dt=0.02)
    assert reports[0].visited == reports[0].total == 1


def test_nested_stages_full_coverage():
    field = equilateral_field()
    v = fixture_vehicle(field, goal_radius=0.12)
    _, reports = run_expanding_goal(v, field, stage_sets(field), T=6000, dt=0.02)
    assert [(r.visited, r.total) for r in reports] == [(1, 1), (3, 3), (6, 6)]


def reference_expanding_goal(v, field, goals, T, dt):
    """``run_expanding_goal``'s path with the color at each position solved
    afresh, for the look and for the step."""
    path = [np.array(v.position)]
    for stage in goals:
        visited = set()
        for step in range(T + 1):
            here = sample_cmyk(field, v.position)
            visited.update(t for t in stage if cmyk_distance(here, t) <= v.goal_radius)
            remaining = [t for t in stage if t not in visited]
            if not remaining or step == T:
                break
            nearest = min(remaining, key=lambda t: cmyk_distance(here, t))
            v = vehicle_step(replace(v, target=nearest), field, dt)
            path.append(np.array(v.position))
    return path


@pytest.mark.parametrize("radius, dt", [(0.12, 0.02), (0.05, 0.02), (0.12, 0.3)])
def test_expanding_goal_solves_each_position_once(monkeypatch, radius, dt):
    # The body sits on an edge on most steps (296 of 418 in the first case),
    # so colors solved at a clamped point are carried too.
    field = equilateral_field()
    goals = stage_sets(field)[:2]
    v = fixture_vehicle(field, goal_radius=radius)
    want = reference_expanding_goal(v, field, goals, 300, dt)
    settles = count_calls(monkeypatch, CmykField, "_settle")
    path, _ = run_expanding_goal(v, field, goals, T=300, dt=dt)
    assert np.array(path).tobytes() == np.array(want).tobytes()
    # The start once, then two sensors and the new position a step.
    assert settles[0] == 1 + 3 * (len(path) - 1)


def test_non_nested_stages_rejected():
    field = equilateral_field()
    stages = stage_sets(field)
    with pytest.raises(ValueError, match="nested"):
        run_expanding_goal(
            fixture_vehicle(field), field, [stages[1], stages[0]], T=10, dt=0.02
        )
    with pytest.raises(ValueError, match="non-empty"):
        run_expanding_goal(fixture_vehicle(field), field, [stages[0], ()], T=10, dt=0.02)
