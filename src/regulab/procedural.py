"""Procedural motor acquisition under alternating conditions.

Two testbeds live here.

Reaching in a rotational force field: a point mass tracks straight
center-out reaches while a velocity-dependent curl field
F = gain * Rot(angle) * v pushes it sideways. The learner holds a linear
compensation matrix and adapts it with a normalized delta rule on the
residual force it feels each step. Adaptation runs on two timescales, a
fast process that decays between trials and a slow process that retains,
because a single-timescale compensator relearns a washed-out field no
faster than it learned it the first time and therefore cannot show
savings. The phase protocol (learn at one angle, unlearn at a conflicting
one, relearn at the first) yields the two standard metrics: interference,
the error jump at the first conflicting trial, and savings, the change in
trials-to-criterion when the original field returns (negative means
faster relearning).

Gradient following in a color field: a triangular arena carries pure cyan,
magenta, and yellow at its corners; any interior point samples the
barycentric mix with a derived black channel k = 1 - max(c, m, y). A
two-sensor vehicle measures the color distance to a target at two points
held perpendicular to its heading and steers by their difference
(cross-coupled, so the turn tips toward the closer side), with forward
speed proportional to the body's own distance so it parks exactly on the
target. The expanding-goal run visits nested target sets stage by stage,
steering at the nearest unvisited target.
"""

from __future__ import annotations

import math
from math import fsum
from dataclasses import dataclass, field, replace

import numpy as np

from ._checks import check_dt
from .rng import SplitMix64


# ---------------------------------------------------------------------------
# Fused multiply-add on plain floats
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_PRODUCT_MIN = 2.0**-968  # a smaller product's low half can underflow
_PRODUCT_MAX = 2.0**1019  # below it, no partial product nor fsum's sum with a like c overflows


def _fma(a: float, b: float, c: float) -> float:
    """``a * b + c`` rounded once, as a fused multiply-add rounds it.

    The reach learner's and the vehicle's outputs were first computed with
    BLAS and LAPACK kernels that fuse their multiply-adds; ``_fma`` gives
    those roundings in plain floats, the same on every host. Dekker's
    TwoProduct (1971) writes ``a * b`` exactly as ``h + l``, and ``math.fsum``
    rounds ``h + l + c`` correctly (Shewchuk 1997). TwoProduct is exact
    while no split overflows and the product neither underflows nor comes
    near overflow; outside that range the exact rational is rounded."""
    ah = _SPLIT * a - (_SPLIT * a - a)  # Veltkamp's split: a = ah + (a - ah) exactly
    bh = _SPLIT * b - (_SPLIT * b - b)
    p = ah * bh  # nan if a split overflowed
    if _PRODUCT_MIN < abs(p) < _PRODUCT_MAX > abs(c):  # then fsum cannot overflow either
        h = a * b
        al = a - ah
        bl = b - bh
        return fsum((h, p - h + ah * bl + al * bh + al * bl, c))
    if a == 0.0 or b == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        return a * b + c  # the product is exact: a signed zero, an infinity or nan
    if not math.isfinite(c):
        return c  # a finite product does not change it
    from fractions import Fraction  # here only: importing it costs every run otherwise
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        return float(exact)  # correctly rounded; an exact zero is +0, as IEEE rounds it
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


# ---------------------------------------------------------------------------
# Rotational force fields and the two-timescale reach learner
# ---------------------------------------------------------------------------


def rotation_matrix(angle_deg: float) -> np.ndarray:
    a = math.radians(angle_deg % 360.0)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class CurlField:
    """Velocity-dependent field F = gain * Rot(angle) * v. Its matrix rows
    are kept as floats once, for the reaches in it."""

    gain: float
    angle: float

    def __post_init__(self) -> None:
        if not (0 <= self.gain < math.inf):  # also rejects nan
            raise ValueError(f"gain must be finite and >= 0, got {self.gain}")
        if not math.isfinite(self.angle):
            raise ValueError(f"angle must be finite, got {self.angle}")
        object.__setattr__(self, "angle", self.angle % 360.0)
        object.__setattr__(self, "_rows", tuple(map(tuple, self.matrix.tolist())))

    @property
    def matrix(self) -> np.ndarray:
        return self.gain * rotation_matrix(self.angle)


@dataclass(frozen=True)
class ReachLearner:
    """Linear compensator comp = fast + slow, trained by a normalized delta
    rule. ``rate`` drives the fast process; the slow process learns at
    ``slow_rate`` and never decays, while the fast process multiplies by
    ``fast_retention`` after every trial. The defaults are the profile the
    phase-protocol experiments run at: slow enough that a 200-trial
    conflicting phase only partly erases the slow memory, which is what
    makes relearning measurably faster than naive learning."""

    rate: float = 0.005
    slow_rate: float = 7e-5
    fast_retention: float = 0.94
    fast: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))
    slow: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))

    def __post_init__(self) -> None:
        if not (0 < self.rate < math.inf):  # also rejects nan
            raise ValueError(f"learning rate must be positive and finite, got {self.rate}")
        if not (0 <= self.slow_rate < math.inf):
            raise ValueError(f"slow rate must be finite and >= 0, got {self.slow_rate}")
        if not (0.0 <= self.fast_retention <= 1.0):
            raise ValueError(f"fast retention must be in [0, 1], got {self.fast_retention}")

    @property
    def comp(self) -> np.ndarray:
        return self.fast + self.slow


TRACKING_GAIN = 12.0  # stiffness pulling the hand's velocity back to the desired one
REACH_STEPS, REACH_DT = 60, 0.01  # Euler steps of one reach, and their length in seconds


def run_trial(l: ReachLearner, f: CurlField, start: np.ndarray, target: np.ndarray,
              kicks: list[float] | None = None) -> tuple[ReachLearner, float]:
    """One reach of ``REACH_STEPS`` Euler steps of ``REACH_DT`` seconds.
    Returns the post-trial learner (fast process decayed) and the trial
    error: the mean deviation of the hand from the straight-path position
    schedule. Deviation is measured against the moving desired position, not
    just the path line, so collinear (0 or 180 degree) field perturbations
    register in the error exactly like orthogonal ones.

    ``kicks``, if given, holds ``2 * REACH_STEPS`` floats: step k adds
    ``kicks[2k]`` and ``kicks[2k + 1]`` to the felt force's two axes (the
    delta rule's input, not the hand's dynamics). None kicks nothing."""
    steps, dt = REACH_STEPS, REACH_DT
    if kicks is not None and len(kicks) != 2 * steps:
        raise ValueError(f"{steps} steps need {2 * steps} kicks, got {len(kicks)}")
    px, py = np.asarray(start, dtype=float).tolist()
    tx, ty = np.asarray(target, dtype=float).tolist()
    span_x, span_y = tx - px, ty - py
    if _fma(span_y, span_y, span_x * span_x) == 0.0:
        raise ValueError("start and target coincide")
    vdx, vdy = span_x / (steps * dt), span_y / (steps * dt)

    # Each matrix-vector row and squared length is ``_fma`` written out, with
    # the splits of vx and of the field's first column hoisted out of the
    # loop; ``_fma`` itself runs wherever the fast path's guard fails.
    (m00, m01), (m10, m11) = f._rows
    m00h, m10h = _SPLIT * m00 - (_SPLIT * m00 - m00), _SPLIT * m10 - (_SPLIT * m10 - m10)
    m00l, m10l = m00 - m00h, m10 - m10h
    f00, f01, f10, f11 = np.asarray(l.fast, dtype=float).ravel().tolist()
    s00, s01, s10, s11 = np.asarray(l.slow, dtype=float).ravel().tolist()
    rate, slow_rate = l.rate, l.slow_rate
    vx, vy = vdx, vdy
    qx, qy = px, py  # desired position
    denom = _fma(vdy, vdy, vdx * vdx) + 1e-12
    dev_sum = 0.0
    sqrt = math.sqrt
    lo, hi = _PRODUCT_MIN, _PRODUCT_MAX
    for k in range(steps):
        vxh = _SPLIT * vx - (_SPLIT * vx - vx)
        vxl = vx - vxh
        # (field_x, field_y) = field @ (vx, vy)
        c, p, h = m01 * vy, m00h * vxh, m00 * vx
        field_x = (fsum((h, p - h + m00h * vxl + m00l * vxh + m00l * vxl, c))
                   if lo < abs(p) < hi > abs(c) else _fma(m00, vx, c))
        c, p, h = m11 * vy, m10h * vxh, m10 * vx
        field_y = (fsum((h, p - h + m10h * vxl + m10l * vxh + m10l * vxl, c))
                   if lo < abs(p) < hi > abs(c) else _fma(m10, vx, c))
        # (comp_x, comp_y) = (fast + slow) @ (vx, vy)
        a = f00 + s00
        ah = _SPLIT * a - (_SPLIT * a - a)
        al = a - ah
        c, p, h = (f01 + s01) * vy, ah * vxh, a * vx
        comp_x = (fsum((h, p - h + ah * vxl + al * vxh + al * vxl, c))
                  if lo < abs(p) < hi > abs(c) else _fma(a, vx, c))
        a = f10 + s10
        ah = _SPLIT * a - (_SPLIT * a - a)
        al = a - ah
        c, p, h = (f11 + s11) * vy, ah * vxh, a * vx
        comp_y = (fsum((h, p - h + ah * vxl + al * vxh + al * vxl, c))
                  if lo < abs(p) < hi > abs(c) else _fma(a, vx, c))
        rx = field_x - comp_x
        ry = field_y - comp_y
        fx, fy = (rx, ry) if kicks is None else (rx + kicks[2 * k], ry + kicks[2 * k + 1])
        u00 = fx * vx / denom
        u01 = fx * vy / denom
        u10 = fy * vx / denom
        u11 = fy * vy / denom
        f00 += rate * u00
        f01 += rate * u01
        f10 += rate * u10
        f11 += rate * u11
        s00 += slow_rate * u00
        s01 += slow_rate * u01
        s10 += slow_rate * u10
        s11 += slow_rate * u11
        vx = vx + dt * (rx + TRACKING_GAIN * (vdx - vx))
        vy = vy + dt * (ry + TRACKING_GAIN * (vdy - vy))
        px = px + dt * vx
        py = py + dt * vy
        qx = qx + dt * vdx
        qy = qy + dt * vdy
        # |p| <= 7e5 * sqrt(2) < 1e6 needs no exact length.
        if not (-7e5 <= px <= 7e5 and -7e5 <= py <= 7e5) and not sqrt(_fma(py, py, px * px)) <= 1e6:
            raise ReachDivergenceError("reach diverged, |position| > 1e6")
        # |p - q|, and |v|**2 for the next step's delta rule
        ex, ey = px - qx, py - qy
        ah = _SPLIT * ey - (_SPLIT * ey - ey)
        al = ey - ah
        c, p, h = ex * ex, ah * ah, ey * ey
        dev_sum += sqrt(fsum((h, p - h + 2.0 * ah * al + al * al, c))
                        if lo < p < hi > c else _fma(ey, ey, c))
        ah = _SPLIT * vy - (_SPLIT * vy - vy)
        al = vy - ah
        c, p, h = vx * vx, ah * ah, vy * vy
        denom = (fsum((h, p - h + 2.0 * ah * al + al * al, c))
                 if lo < p < hi > c else _fma(vy, vy, c)) + 1e-12
    r = l.fast_retention
    fast, slow = np.array([f00 * r, f01 * r, f10 * r, f11 * r, s00, s01, s10, s11]).reshape(2, 2, 2)
    learned = object.__new__(type(l))  # l's rates, checked when l was made
    vars(learned).update(vars(l), fast=fast, slow=slow)
    return learned, dev_sum / steps


class ReachDivergenceError(RuntimeError):
    """Reach simulation left the workspace."""


MAX_TRIALS = 1_000_000  # per schedule: 4.3 minutes of reaches on a 2-vCPU Xeon, 114 MB
_KICK_BLOCK = 34  # trials whose kicks run_lur draws at once: 4080 draws, under 4096


@dataclass(frozen=True)
class LurSchedule:
    """Ordered (field angle, trial count) phases with finite angles, at
    most ``MAX_TRIALS`` trials in all."""

    phases: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        if len(self.phases) == 0:
            raise ValueError("a schedule needs at least one phase")
        for angle, trials in self.phases:
            if not math.isfinite(angle):  # checked here, before any phase runs
                raise ValueError(f"angle must be finite, got {angle}")
            if trials < 1:
                raise ValueError(f"each phase needs >= 1 trial, got {trials}")
        total = sum(trials for _, trials in self.phases)
        if total > MAX_TRIALS:
            raise ValueError(f"a schedule holds at most {MAX_TRIALS} trials, got {total}")


@dataclass(frozen=True)
class LurResult:
    phase_errors: tuple[tuple[float, ...], ...]
    interference: float | None
    savings: float | None


def run_lur(l: ReachLearner, sched: LurSchedule, noise: float = 0.0, gain: float = 1.0,
            seed: int = 0) -> LurResult:
    """Run the phase schedule with learner state carried across phases.

    Each trial is a unit-length reach at constant desired velocity,
    ``REACH_STEPS`` Euler steps of ``REACH_DT`` s, with ``TRACKING_GAIN``
    pulling the hand's velocity back to that profile. ``noise`` (finite, >= 0) scales a
    uniform disturbance on the felt residual force; 0 keeps the dynamics fully
    deterministic. Reach directions cycle through 8 around the circle
    (center-out), which keeps the compensator excited in both dimensions.
    Interference is the first-trial error of phase 2 minus the last-trial error
    of phase 1. Savings is the trials phase 3 needs to re-reach phase 1's final
    error, minus the trials phase 1 needed to first reach it; a phase that
    never re-reaches it counts as its trial count plus one. A metric the
    schedule has too few phases for is None."""
    if not (0.0 <= noise < math.inf):  # also rejects nan
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    rng = SplitMix64(seed)
    origin = np.zeros(2)
    dirs = [np.array([math.cos(2 * math.pi * k / 8), math.sin(2 * math.pi * k / 8)])
            for k in range(8)]
    curves: list[tuple[float, ...]] = []
    trial_index = 0
    n_kicks = 2 * REACH_STEPS  # a trial's kicks, one per axis and step
    for angle, trials in sched.phases:
        fld = CurlField(gain=gain, angle=angle)
        errs: list[float] = []
        for first in range(0, trials, _KICK_BLOCK):
            block = min(_KICK_BLOCK, trials - first)
            kicks = (noise * (2.0 * rng.floats(n_kicks * block) - 1.0)).tolist() if noise else None
            for i in range(block):
                l, err = run_trial(l, fld, origin, dirs[trial_index % 8],
                                   kicks=kicks and kicks[n_kicks * i : n_kicks * (i + 1)])
                errs.append(err)
                trial_index += 1
        curves.append(tuple(errs))

    interference = savings = None
    if len(curves) >= 2:
        interference = curves[1][0] - curves[0][-1]
    if len(curves) >= 3:
        criterion = curves[0][-1]

        def reach(curve: tuple[float, ...]) -> int:
            return next((i + 1 for i, e in enumerate(curve) if e <= criterion), len(curve) + 1)

        savings = float(reach(curves[2]) - reach(curves[0]))
    return LurResult(phase_errors=tuple(curves), interference=interference, savings=savings)


# ---------------------------------------------------------------------------
# CMYK arena and the gradient-following vehicle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CmykPoint:
    c: float
    m: float
    y: float
    k: float

    def __post_init__(self) -> None:
        for name, v in (("c", self.c), ("m", self.m), ("y", self.y), ("k", self.k)):
            if not (-1e-12 <= v <= 1.0 + 1e-12):
                raise ValueError(f"channel {name} out of [0, 1]: {v}")


def _distance(p: tuple[float, ...], q: tuple[float, ...]) -> float:
    """Euclidean distance of two (c, m, y, k) tuples, its squares fused in order."""
    g0, g1, g2, g3 = p[0] - q[0], p[1] - q[1], p[2] - q[2], p[3] - q[3]
    return math.sqrt(_fma(g3, g3, _fma(g2, g2, _fma(g1, g1, g0 * g0))))


def cmyk_distance(a: CmykPoint, b: CmykPoint) -> float:
    return _distance((a.c, a.m, a.y, a.k), (b.c, b.m, b.y, b.k))


def _clip01(x: float) -> float:
    """``np.clip(x, 0.0, 1.0)`` on one float, signed zeros included."""
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


class VehicleDivergenceError(RuntimeError):
    """A vehicle step went too far past the arena to be clamped back."""


@dataclass(frozen=True)
class CmykField:
    """Triangle carrying pure C, M, Y at its vertices; colors elsewhere are
    the barycentric mix with k derived as 1 - max(c, m, y).

    Barycentric weights solve the 2x2 system of the edge vectors by the LU
    factorization LAPACK's solver uses (partial pivoting, a reciprocal
    pivot, fused multiply-adds in the substitutions), factored once here."""

    vertices: np.ndarray  # shape (3, 2): C, M, Y positions

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float).copy()
        if v.shape != (3, 2):
            raise ValueError(f"need three 2-D vertices, got shape {v.shape}")
        corners = v.tolist()
        (ax, ay), (bx, by), (cx, cy) = corners
        a00, a01, a10, a11 = bx - ax, cx - ax, by - ay, cy - ay  # edge matrix [b - a, c - a]
        if abs(a00 * a11 - a01 * a10) < 1e-12:
            raise ValueError("triangle vertices are collinear")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        swap = abs(a10) > abs(a00)  # the first of equal pivots stays
        if swap:
            a00, a01, a10, a11 = a10, a11, a00, a01
        lower = a10 * (1.0 / a00)
        object.__setattr__(self, "_lu", (ax, ay, swap, a00, a01, lower, a11 - lower * a01))
        # Side i runs from vertex i to vertex i + 1: (start, direction, squared length).
        sides = []
        for (sx, sy), (ex, ey) in zip(corners, corners[1:] + corners[:1]):
            dx, dy = ex - sx, ey - sy
            sides.append((sx, sy, dx, dy, _fma(dy, dy, dx * dx)))
        object.__setattr__(self, "_sides", tuple(sides))

    def _barycentric(self, x: float, y: float) -> tuple[float, float, float]:
        """(c, m, y) weights of the point (x, y)."""
        ax, ay, swap, a00, a01, lower, u11 = self._lu
        b0, b1 = (y - ay, x - ax) if swap else (x - ax, y - ay)
        w = _fma(-lower, b0, b1) / u11
        u = _fma(-a01, w, b0) / a00
        return 1.0 - u - w, u, w

    def _boundary_point(self, x: float, y: float) -> tuple[float, float]:
        """Nearest point of the triangle's boundary to (x, y); the first
        side wins a tie."""
        nearest, best = None, math.inf
        for ax, ay, dx, dy, sq in self._sides:
            t = _clip01(_fma(y - ay, dy, (x - ax) * dx) / sq)
            fx, fy = ax + t * dx, ay + t * dy
            gx, gy = x - fx, y - fy
            square = _fma(gy, gy, gx * gx)
            if not math.isfinite(square):
                raise VehicleDivergenceError("vehicle step diverged: a point is too far from the "
                                             "arena to clamp (its squared distance overflows)")
            if math.sqrt(square) < best:
                nearest, best = (fx, fy), math.sqrt(square)
        return nearest

    def _settle(self, x: float, y: float) -> tuple[tuple[float, float], tuple[float, ...]]:
        """The nearest point of the triangle to (x, y), itself inside, and the
        (c, m, y, k) color there: a point outside the triangle moves once, to
        its nearest boundary point, and takes the color solved there."""
        c, m, w = self._barycentric(x, y)
        if not (c >= -1e-12 and m >= -1e-12 and w >= -1e-12):  # nan weights move too
            x, y = self._boundary_point(x, y)
            c, m, w = self._barycentric(x, y)
        c, m, w = _clip01(c), _clip01(m), _clip01(w)
        return (x, y), (c, m, w, 1.0 - max(c, m, w))


def sample_cmyk(field_: CmykField, pos: np.ndarray) -> CmykPoint:
    """Color at a position; positions outside the triangle are clamped to
    its nearest boundary point first."""
    return CmykPoint(*field_._settle(*np.asarray(pos, dtype=float).tolist())[1])


@dataclass(frozen=True)
class Vehicle:
    """Two-sensor gradient follower. Sensors sit at sensor_offset on either
    side of the heading; the turn rate is turn_gain * (left - right) sensed
    distance with the left sensor mounted clockwise of the heading, so the
    vehicle turns toward the side that reads closer to the target. Forward
    speed is speed_gain times the color distance at the body, so the drive
    dies exactly on the target.

    ``position`` is an (x, y) pair of floats (any finite 2-vector is taken).
    ``color``, the color at ``position``, and ``distance``, its color
    distance to ``target``, are recorded by the ``vehicle_step`` that made
    the vehicle; they are None on one made otherwise (``replace`` too)."""

    position: tuple[float, float]
    heading: float
    target: CmykPoint
    sensor_offset: float = 0.05
    speed_gain: float = 0.5
    turn_gain: float = 8.0
    goal_radius: float = 0.05
    color: CmykPoint | None = field(default=None, init=False, compare=False)
    distance: float | None = field(default=None, init=False, compare=False)

    def __post_init__(self) -> None:
        # Written so that nan fails every check.
        if not (0 < self.sensor_offset < math.inf):
            raise ValueError(f"sensor offset must be positive and finite, got {self.sensor_offset}")
        if not (0 < self.speed_gain < math.inf and 0 <= self.turn_gain < math.inf):
            raise ValueError("gains must be positive and finite (turn gain may be 0 for a "
                             "straight roller)")
        if not self.goal_radius >= 0:
            raise ValueError(f"goal radius must be >= 0, got {self.goal_radius}")
        try:
            p = tuple(map(float, self.position))  # TypeError for an item that is a row
        except TypeError:
            p = ()
        if len(p) != 2 or not all(map(math.isfinite, (*p, self.heading))):
            raise ValueError(f"position must be a finite 2-vector and heading finite, "
                             f"got {self.position} and {self.heading}")
        object.__setattr__(self, "position", p)


def vehicle_step(v: Vehicle, field_: CmykField, dt: float) -> Vehicle:
    """One Euler step of the sensor-drive loop. The new vehicle carries the
    color at its new position and its distance to the target, which its
    next step reads as the body's (so step it in the same field); a vehicle
    without them solves the color here. Both are built without ``__init__``:
    ``_settle`` returns a finite position and channels in [0, 1], so only
    the new heading, which a steep turn can overflow, is checked; one not
    finite raises VehicleDivergenceError."""
    check_dt(dt)
    h = v.heading
    cos_h, sin_h = math.cos(h), math.sin(h)
    x, y = v.position
    off = v.sensor_offset
    # Left sensor mounted clockwise (heading - 90 degrees): the cross-coupled
    # wiring that makes the difference drive attract rather than repel.
    left = (x + off * sin_h, y + off * -cos_h)
    right = (x + off * -sin_h, y + off * cos_h)
    target = (v.target.c, v.target.m, v.target.y, v.target.k)
    d_left, d_right = (_distance(field_._settle(*at)[1], target) for at in (left, right))
    d_body = _distance(field_._settle(x, y)[1], target) if v.distance is None else v.distance
    speed = v.speed_gain * d_body
    new_heading = h + dt * v.turn_gain * (d_left - d_right)
    ahead = dt * speed
    new_pos, color = field_._settle(x + ahead * cos_h, y + ahead * sin_h)
    if not math.isfinite(new_heading):
        raise VehicleDivergenceError("vehicle step diverged: the heading is not finite")
    point = object.__new__(CmykPoint)
    vars(point).update(zip("cmyk", color))
    stepped = object.__new__(type(v))
    vars(stepped).update(vars(v), position=new_pos, heading=new_heading, color=point,
                         distance=_distance(color, target))
    return stepped


def _with_color(v: Vehicle, color: CmykPoint) -> Vehicle:
    """``v``, just made, recording ``color`` at its position and the distance to its target."""
    object.__setattr__(v, "color", color)
    object.__setattr__(v, "distance", cmyk_distance(color, v.target))
    return v


@dataclass(frozen=True)
class StageReport:
    visited: int
    total: int


def run_expanding_goal(
    v: Vehicle,
    field_: CmykField,
    goals: list[tuple[CmykPoint, ...]],
    T: int,
    dt: float = 0.02,
) -> tuple[list[np.ndarray], list[StageReport]]:
    """Visit nested target sets stage by stage.

    Each stage gets T steps; within a stage the vehicle steers at the
    nearest not-yet-visited target (by color distance) and a target counts
    as visited once the vehicle comes within its goal radius. Stages must
    be nested (each set contains the previous one) and non-empty.
    """
    if not goals:
        raise ValueError("need at least one goal stage")
    if any(len(g) == 0 for g in goals):
        raise ValueError("goal stages must be non-empty")
    for earlier, later in zip(goals, goals[1:]):
        if not set(earlier).issubset(set(later)):
            raise ValueError("goal stages must be nested, each containing the last")

    path: list[np.ndarray] = [np.array(v.position)]
    reports: list[StageReport] = []
    for stage in goals:
        visited: set[CmykPoint] = set()
        for step in range(T + 1):  # a last look after the stage's T steps
            here = sample_cmyk(field_, v.position) if v.color is None else v.color
            visited.update(t for t in stage
                           if t not in visited and cmyk_distance(here, t) <= v.goal_radius)
            remaining = [t for t in stage if t not in visited]
            if not remaining or step == T:
                break
            nearest = min(remaining, key=lambda t: cmyk_distance(here, t))
            if v.distance is None or nearest != v.target:  # the color depends on position alone
                v = _with_color(replace(v, target=nearest), here)
            v = vehicle_step(v, field_, dt)
            path.append(np.array(v.position))
        reports.append(StageReport(visited=len(visited), total=len(stage)))
    return path, reports


def equilateral_field() -> CmykField:
    """C at the origin, M to the right, Y above, sides of 1: the standard test arena."""
    return CmykField(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]))
