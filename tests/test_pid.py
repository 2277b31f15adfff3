"""Three-term controller: closed forms, reductions, plant behavior."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regulab import pid
from regulab.pid import (
    PidDivergenceError,
    PidGains,
    PidState,
    PidTrajectory,
    pid_step,
    simulate_pid,
)


def run_sequence(gains, errors, dt):
    st_ = PidState()
    outs = []
    for e in errors:
        out, st_ = pid_step(gains, st_, e, dt)
        outs.append(out)
    return outs


def test_zero_error_zero_output():
    outs = run_sequence(PidGains(kp=1.5, ti=2.0, td=0.3), [0.0] * 20, dt=0.1)
    assert outs == [0.0] * 20


def test_proportional_only_exact():
    out, _ = pid_step(PidGains(kp=2.0), PidState(), error=0.5, dt=0.1)
    assert out == 1.0


def test_integral_accumulation_closed_form():
    # kp=0, ti=1, constant error 1 at dt=0.1: k-th output is 0.1 * k.
    gains = PidGains(kp=0.0, ti=1.0)
    outs = run_sequence(gains, [1.0] * 50, dt=0.1)
    for k, out in enumerate(outs, start=1):
        assert out == pytest.approx(0.1 * k, abs=1e-12)


def test_reduction_to_pure_gain_is_bit_exact():
    gains = PidGains(kp=1.7, ti=math.inf, td=0.0)
    st_ = PidState()
    for e in [0.3, -2.5, 1e-8, 0.0, 7.25]:
        out, st_ = pid_step(gains, st_, e, dt=0.05)
        assert struct.pack("<d", out) == struct.pack("<d", 1.7 * e)


def test_proportional_only_stateless():
    gains = PidGains(kp=3.0)
    fresh, _ = pid_step(gains, PidState(), 0.75, dt=0.1)
    _, warm_state = pid_step(gains, PidState(), -5.0, dt=0.1)
    warm, _ = pid_step(gains, warm_state, 0.75, dt=0.1)
    assert fresh == warm


def test_first_step_derivative_is_zero():
    gains = PidGains(kp=0.0, ti=math.inf, td=1.0)
    assert PidState().prev_error is None
    out, st_ = pid_step(gains, PidState(), error=5.0, dt=0.1)
    assert out == 0.0
    assert st_ == PidState(integral=5.0 * 0.1, prev_error=5.0)
    out2, _ = pid_step(gains, st_, error=6.0, dt=0.1)
    assert out2 == pytest.approx((6.0 - 5.0) / 0.1)


def test_rectangular_integral_matches_running_sum():
    rngs = np.sin(np.arange(100_000) * 0.37) * 2.0
    gains = PidGains(kp=0.0, ti=1.0)
    st_ = PidState()
    dt = 0.001
    running = 0.0
    worst = 0.0
    for e in rngs:
        out, st_ = pid_step(gains, st_, float(e), dt)
        running += float(e) * dt
        if running != 0:
            worst = max(worst, abs(out - running) / abs(running))
    assert worst <= 1e-10


@settings(max_examples=40)
@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=60),
    st.floats(0.1, 10.0),
)
def test_linearity_in_error_sequence(errors, c):
    gains = PidGains(kp=1.2, ti=0.7, td=0.05)
    base = run_sequence(gains, errors, dt=0.01)
    scaled = run_sequence(gains, [c * e for e in errors], dt=0.01)
    for b, s in zip(base, scaled):
        assert s == pytest.approx(c * b, rel=1e-12, abs=1e-12)


def test_step_input_validation():
    with pytest.raises(ValueError):
        pid_step(PidGains(kp=1.0), PidState(), error=1.0, dt=0.0)
    with pytest.raises(ValueError):
        pid_step(PidGains(kp=1.0), PidState(), error=math.nan, dt=0.1)
    with pytest.raises(ValueError):
        PidGains(kp=math.inf)
    with pytest.raises(ValueError):
        PidGains(kp=1.0, ti=0.0)


@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
def test_step_size_must_be_positive_and_finite(dt):
    with pytest.raises(ValueError, match="dt"):
        pid_step(PidGains(kp=1.0), PidState(), error=1.0, dt=dt)
    with pytest.raises(ValueError, match="dt"):
        simulate_pid(PidGains(kp=1.0), 1.0, setpoint=1.0, x0=0.0, dt=dt, T=10)


# --- closed loop --------------------------------------------------------------


def reference_simulation(g, plant_gain, setpoint, x0, dt, T, disturbance):
    """``simulate_pid`` written as a plain loop over the three terms."""
    x, integral, prev, rows = float(x0), 0.0, None, []
    for _ in range(T):
        e = setpoint - x
        integral = integral + e * dt
        u = g.kp * e
        if math.isfinite(g.ti):
            u += integral / g.ti
        if g.td != 0.0 and prev is not None:
            u += g.td * (e - prev) / dt
        rows.append((x, u, e))
        x = x + dt * (plant_gain * u + disturbance)
        prev = e
    return np.array(rows)


SETTLING = [  # (gains, plant_gain, setpoint, x0, T, disturbance), at dt 0.01
    # The loops workload's run: its rows repeat from row 6305 on.
    (PidGains(kp=1.0, ti=1.0), 1.0, 1.0, 0.0, 100_000, -0.5),
    # P only: rows repeat from row 3254 on, while the unused integral grows.
    (PidGains(kp=1.0), 1.0, 1.0, 0.0, 10_000, -0.5),
    (PidGains(kp=1.0, td=0.05), 1.0, 1.0, 0.0, 20_000, -0.5),
    (PidGains(kp=1.0, ti=1.0, td=0.05), 1.0, 1.0, 0.0, 20_000, -0.5),
    # x is -0 for two steps, then +0: == alone would call step 1 a repeat.
    (PidGains(kp=-1.0, td=0.05), 1.0, 0.0, -0.0, 10_000, -0.0),
    (PidGains(kp=1.0, ti=1.0), 1.0, -0.0, 0.0, 10_000, 0.0),
    (PidGains(kp=1.0, ti=1.0), 1.0, -0.0, -0.0, 10_000, -0.0),
]


@pytest.mark.parametrize("gains, plant_gain, setpoint, x0, T, disturbance", [
    *((g, 1.3, 1.0, -0.2, 3000, -0.5) for g in (
        PidGains(kp=1.0), PidGains(kp=1.0, ti=1.0), PidGains(kp=0.7, ti=0.4, td=0.05),
        PidGains(kp=2.0, td=0.1))),
    *SETTLING,
])
def test_simulation_matches_plain_loop_bit_for_bit(gains, plant_gain, setpoint, x0, T,
                                                   disturbance):
    traj = simulate_pid(gains, plant_gain, setpoint, x0, 0.01, T, disturbance)
    want = reference_simulation(gains, plant_gain, setpoint, x0, 0.01, T, disturbance)
    assert np.column_stack([traj.x, traj.u, traj.e]).tobytes() == want.tobytes()


def signed(values):
    return st.one_of(st.sampled_from([0.0, -0.0]), values)


@settings(max_examples=60, deadline=None)
@given(
    kp=st.floats(0.05, 3.0),
    ti=st.one_of(st.just(math.inf), st.floats(0.5, 20.0)),
    td=st.one_of(st.just(0.0), st.floats(0.001, 0.1)),
    dt=st.floats(0.005, 0.1),
    plant_gain=st.floats(0.2, 2.0),
    setpoint=signed(st.floats(-2.0, 2.0)),
    x0=signed(st.floats(-2.0, 2.0)),
    disturbance=signed(st.floats(-1.0, 1.0)),
    T=st.integers(1, 4000),
)
def test_simulation_matches_plain_loop_property(kp, ti, td, dt, plant_gain, setpoint, x0,
                                                disturbance, T):
    gains = PidGains(kp=kp, ti=ti, td=td)
    traj = simulate_pid(gains, plant_gain, setpoint, x0, dt, T, disturbance)
    want = reference_simulation(gains, plant_gain, setpoint, x0, dt, T, disturbance)
    assert np.column_stack([traj.x, traj.u, traj.e]).tobytes() == want.tobytes()


@pytest.mark.parametrize("case, steps", [(0, 6306), (1, 3255), (4, 3)])
def test_settled_run_stops_stepping(case, steps, monkeypatch):
    # Each run computes the rows up to the first one that every later row
    # repeats, and fills in the rest.
    calls = []
    control = pid._control
    monkeypatch.setattr(pid, "_control", lambda *args: calls.append(1) or control(*args))
    gains, plant_gain, setpoint, x0, T, disturbance = SETTLING[case]
    traj = simulate_pid(gains, plant_gain, setpoint, x0, 0.01, T, disturbance)
    assert len(calls) == steps
    assert len(traj.ticks) == len(traj.x) == T


def test_already_at_setpoint():
    traj = simulate_pid(PidGains(kp=1.0, ti=1.0), 1.0, setpoint=2.0, x0=2.0, dt=0.01, T=100)
    assert np.all(traj.e == 0.0)
    assert np.all(traj.u == 0.0)
    assert np.all(traj.x == 2.0)


def test_p_only_discrete_exponential():
    # kp=1, plant_gain=1, dt=0.01: e[k] = 0.99^k exactly.
    traj = simulate_pid(PidGains(kp=1.0), 1.0, setpoint=1.0, x0=0.0, dt=0.01, T=5000)
    ks = np.arange(5000)
    expected = 0.99 ** ks
    # Below ~1e-14 the update dt*e drops under one ulp of x and freezes,
    # so the closed form is only checked where it is representable.
    live = expected > 1e-12
    assert np.allclose(traj.e[live], expected[live], rtol=1e-9)
    assert np.all(np.diff(traj.x) >= 0)
    assert abs(traj.e[-1]) < 1e-3


def test_pi_rejects_constant_disturbance_p_does_not():
    # Constant -0.5 added to the plant derivative.
    p_traj = simulate_pid(
        PidGains(kp=1.0), 1.0, setpoint=1.0, x0=0.0, dt=0.01, T=10_000, disturbance=-0.5
    )
    assert abs(p_traj.e[-1]) >= 0.4
    pi_traj = simulate_pid(
        PidGains(kp=1.0, ti=1.0), 1.0, setpoint=1.0, x0=0.0, dt=0.01, T=10_000, disturbance=-0.5
    )
    assert abs(pi_traj.e[-1]) < 1e-3


def test_divergence_guard_names_tick():
    # Unstable: huge kp with dt too coarse flips sign and grows.
    with pytest.raises(PidDivergenceError, match="tick"):
        simulate_pid(PidGains(kp=500.0), 1.0, setpoint=1.0, x0=0.0, dt=1.0, T=1000)


def test_nonfinite_control_output_is_divergence_at_its_tick():
    # kp * e overflows to inf on the first step, while |x| is still 0.
    with pytest.raises(PidDivergenceError, match="u = inf is not finite at tick 0"):
        simulate_pid(PidGains(kp=1e300), 1.0, setpoint=1e10, x0=0.0, dt=0.01, T=1)


def test_trajectory_shape():
    traj = simulate_pid(PidGains(kp=1.0), 1.0, 1.0, 0.0, dt=0.1, T=1)
    assert isinstance(traj, PidTrajectory)
    assert traj.x.shape == traj.u.shape == traj.e.shape == (1,)
