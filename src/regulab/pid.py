"""Discrete-time proportional-integral-derivative regulation.

The controller is the textbook three-term law

    u = kp * e  +  (1/ti) * integral(e)  +  td * d(e)/dt

discretized with a rectangular (backward-Euler) integral and a
first-difference derivative. The derivative term is defined as 0 on the
first step. There is no anti-windup, clamping, or derivative filtering;
the point is a hand-checkable ideal regulator. ``ti = math.inf`` disables
the integral term, ``td = 0`` the derivative term, and in that reduction
the output is bit-identical to ``kp * error``.

``simulate_pid`` closes the loop around a first-order scalar plant
x' = plant_gain * u + disturbance, integrated by explicit Euler. That is
enough to show the behavioral contrast this module exists for: a P-only
controller leaves a steady offset under constant disturbance, while PI
drives the error to zero.

A loop that settles reaches its steady state exactly in floats: from some
step on, each step reads the same bits as the step before, of x, of the
integral if the integral term is on and of the previous error if the
derivative term is on. ``simulate_pid`` stops stepping once its state
repeats exactly, and the remaining rows repeat that step's row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_dt


@dataclass(frozen=True)
class PidGains:
    """kp is dimensionless, ti is the integral time in seconds (math.inf
    disables integration), td the derivative time in seconds."""

    kp: float
    ti: float = math.inf
    td: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.kp):
            raise ValueError(f"kp must be finite, got {self.kp}")
        if not (self.ti > 0):  # inf allowed, nan/zero/negative rejected
            raise ValueError(f"ti must be > 0 (math.inf to disable), got {self.ti}")
        if not (self.td >= 0 and math.isfinite(self.td)):
            raise ValueError(f"td must be finite and >= 0, got {self.td}")


@dataclass(frozen=True)
class PidState:
    integral: float = 0.0
    prev_error: float | None = None  # None before the first step


@dataclass(frozen=True)
class PidTrajectory:
    """Closed-loop record: x[k], u[k], e[k] at tick k."""

    ticks: range
    x: np.ndarray
    u: np.ndarray
    e: np.ndarray


def _control(g: PidGains, integral: float, prev_error: float | None, error: float,
             dt: float) -> float:
    """The three-term law for one step. ``integral`` already includes
    ``error * dt``; ``prev_error`` is None on the first step."""
    if not math.isfinite(error):
        raise ValueError(f"error input must be finite, got {error}")
    out = g.kp * error
    if math.isfinite(g.ti):
        out += integral / g.ti
    if g.td != 0.0 and prev_error is not None:
        out += g.td * (error - prev_error) / dt
    return out


def pid_step(
    g: PidGains, st: PidState, error: float, dt: float
) -> tuple[float, PidState]:
    """One controller update: the output and the next state. Integral
    accumulates error*dt before use (rectangular rule); derivative is
    (error - prev_error)/dt, 0 on the first call."""
    check_dt(dt)
    integral = st.integral + error * dt
    out = _control(g, integral, st.prev_error, error, dt)
    return out, PidState(integral=integral, prev_error=error)


def simulate_pid(
    g: PidGains,
    plant_gain: float,
    setpoint: float,
    x0: float,
    dt: float,
    T: int,
    disturbance: float = 0.0,
) -> PidTrajectory:
    """Setpoint tracking on the first-order plant
    x[k+1] = x[k] + dt * (plant_gain * u[k] + disturbance).

    Aborts with a diagnostic naming the tick if |x| exceeds 1e12 or the
    control output u is not finite. Once a step would read the same state
    as the one before it, bit for bit, every later row equals that step's
    row: the loop fills them in and stops. The trajectory has ``T`` rows
    either way.
    """
    if T < 1:
        raise ValueError(f"need at least 1 step, got {T}")
    check_dt(dt)
    xs = np.empty(T, dtype=float)
    us = np.empty(T, dtype=float)
    es = np.empty(T, dtype=float)
    x = float(x0)
    integral = 0.0
    prev_error = None
    integrating, differentiating = math.isfinite(g.ti), g.td != 0.0
    for k in range(T):
        if abs(x) > 1e12:
            raise PidDivergenceError(
                f"plant state |x| = {abs(x):.3e} exceeded 1e12 at tick {k}"
            )
        e = setpoint - x
        step_integral = integral + e * dt
        u = _control(g, step_integral, prev_error, e, dt)
        if not math.isfinite(u):
            raise PidDivergenceError(f"control output u = {u} is not finite at tick {k}")
        xs[k] = x
        us[k] = u
        es[k] = e
        x_next = x + dt * (plant_gain * u + disturbance)
        # Step k + 1 would read exactly what step k read: so would every later
        # step. The plain == comes first: it is false until x settles.
        if (x_next == x and _same_bits(x_next, x)
                and (not integrating or _same_bits(step_integral, integral))
                and (not differentiating or _same_bits(e, prev_error))):
            xs[k + 1:] = x
            us[k + 1:] = u
            es[k + 1:] = e
            break
        x, integral, prev_error = x_next, step_integral, e
    return PidTrajectory(ticks=range(T), x=xs, u=us, e=es)


def _same_bits(a: float, b: float | None) -> bool:
    """Whether two non-NaN floats have the same bits: ``==``, and the same
    sign if both are zero, since ``0.0 == -0.0`` but the CSV writes ``-0``."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class PidDivergenceError(RuntimeError):
    """Closed loop blew past the divergence guard."""
