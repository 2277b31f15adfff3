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
from dataclasses import dataclass, field, replace

import numpy as np

from ._checks import check_dt
from .rng import SplitMix64


# ---------------------------------------------------------------------------
# Rotational force fields and the two-timescale reach learner
# ---------------------------------------------------------------------------


def rotation_matrix(angle_deg: float) -> np.ndarray:
    a = math.radians(angle_deg % 360.0)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class CurlField:
    """Velocity-dependent field F = gain * Rot(angle) * v."""

    gain: float
    angle: float

    def __post_init__(self) -> None:
        if not (0 <= self.gain < math.inf):  # also rejects nan
            raise ValueError(f"gain must be finite and >= 0, got {self.gain}")
        if not math.isfinite(self.angle):
            raise ValueError(f"angle must be finite, got {self.angle}")
        object.__setattr__(self, "angle", self.angle % 360.0)

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
        if not (0.0 <= self.fast_retention <= 1.0):
            raise ValueError(f"fast retention must be in [0, 1], got {self.fast_retention}")

    @property
    def comp(self) -> np.ndarray:
        return self.fast + self.slow


@dataclass(frozen=True)
class TrialParams:
    """Per-trial simulation setup shared across a protocol.

    Reaches run at constant desired velocity from start to target over
    ``steps`` Euler steps of ``dt``; ``tracking_gain`` is the stiffness
    pulling the hand's velocity back to the desired profile. ``noise``
    scales a uniform disturbance on the felt residual force (0 keeps the
    dynamics fully deterministic).
    """

    steps: int = 60
    dt: float = 0.01
    tracking_gain: float = 12.0
    reach_length: float = 1.0
    directions: int = 8
    noise: float = 0.0


def run_trial(
    l: ReachLearner,
    f: CurlField,
    start: np.ndarray,
    target: np.ndarray,
    steps: int,
    dt: float,
    tracking_gain: float = 12.0,
    noise: float = 0.0,
    rng: SplitMix64 | None = None,
) -> tuple[ReachLearner, float]:
    """One reach. Returns the post-trial learner (fast process decayed) and
    the trial error: the mean deviation of the hand from the straight-path
    position schedule. Deviation is measured against the moving desired
    position, not just the path line, so collinear (0 or 180 degree) field
    perturbations register in the error exactly like orthogonal ones.

    With ``noise > 0`` and an ``rng``, each step kicks the felt force by
    ``noise * (2u - 1)`` per axis, two draws per step, drawn for the whole
    reach up front."""
    if steps < 1:
        raise ValueError(f"need at least 1 step, got {steps}")
    check_dt(dt)
    start = np.asarray(start, dtype=float)
    target = np.asarray(target, dtype=float)
    span = target - start
    if float(np.linalg.norm(span)) == 0.0:
        raise ValueError("start and target coincide")
    v_des = span / (steps * dt)
    kicks = None
    if noise > 0.0 and rng is not None:
        kicks = (noise * (2.0 * rng.floats(2 * steps) - 1.0)).tolist()

    # The 2x2 algebra runs on floats; only the matrix-vector product and the
    # dot products stay numpy calls, because numpy's BLAS fuses their
    # multiply-adds and the outputs are pinned to those bits. Rows 0-1 of
    # ``rows`` hold the field matrix, rows 2-3 the compensator fast + slow.
    rows = np.empty((4, 2))
    rows[:2] = f.matrix
    comp = rows.reshape(-1)[4:]
    vel = np.empty(2)
    ends = np.empty((3, 2))  # velocity, position, deviation after a step
    end_values = ends.reshape(-1)
    f00, f01, f10, f11 = np.asarray(l.fast, dtype=float).ravel().tolist()
    s00, s01, s10, s11 = np.asarray(l.slow, dtype=float).ravel().tolist()
    rate, slow_rate = l.rate, l.slow_rate
    vdx, vdy = v_des.tolist()
    vx, vy = vdx, vdy
    px, py = start.tolist()
    qx, qy = px, py  # desired position
    denom = float(v_des @ v_des) + 1e-12
    dev_sum = 0.0
    vecdot, sqrt = np.vecdot, math.sqrt
    # An overflow (to inf) ends the reach: the divergence check of the same
    # step raises on it, so numpy need not warn first.
    with np.errstate(over="ignore"):
        for k in range(steps):
            comp[:] = (f00 + s00, f01 + s01, f10 + s10, f11 + s11)
            vel[0] = vx
            vel[1] = vy
            field_x, field_y, comp_x, comp_y = (rows @ vel).tolist()
            rx = field_x - comp_x
            ry = field_y - comp_y
            if kicks is None:
                fx, fy = rx, ry
            else:
                fx = rx + kicks[2 * k]
                fy = ry + kicks[2 * k + 1]
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
            vx = vx + dt * (rx + tracking_gain * (vdx - vx))
            vy = vy + dt * (ry + tracking_gain * (vdy - vy))
            px = px + dt * vx
            py = py + dt * vy
            qx = qx + dt * vdx
            qy = qy + dt * vdy
            end_values[:] = (vx, vy, px, py, px - qx, py - qy)
            vv, pp, ee = vecdot(ends, ends).tolist()
            if not sqrt(pp) <= 1e6:  # nan too
                raise ReachDivergenceError("reach diverged, |position| > 1e6")
            dev_sum += sqrt(ee)
            denom = vv + 1e-12
    r = l.fast_retention
    fast = np.array([[f00 * r, f01 * r], [f10 * r, f11 * r]])
    slow = np.array([[s00, s01], [s10, s11]])
    return replace(l, fast=fast, slow=slow), dev_sum / steps


class ReachDivergenceError(RuntimeError):
    """Reach simulation left the workspace."""


@dataclass(frozen=True)
class LurSchedule:
    """Ordered (field angle, trial count) phases."""

    phases: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        if len(self.phases) == 0:
            raise ValueError("a schedule needs at least one phase")
        for angle, trials in self.phases:
            if trials < 1:
                raise ValueError(f"each phase needs >= 1 trial, got {trials}")


@dataclass(frozen=True)
class LurResult:
    phase_errors: tuple[tuple[float, ...], ...]
    interference: float
    savings: float


def run_lur(
    l: ReachLearner,
    sched: LurSchedule,
    trial_params: TrialParams,
    gain: float = 1.0,
    seed: int = 0,
) -> LurResult:
    """Run the phase schedule with learner state carried across phases.

    Reach directions cycle around the circle (center-out), which keeps the
    compensator excited in both dimensions. Interference is the first-trial
    error of phase 2 minus the last-trial error of phase 1. Savings is the
    trials phase 3 needs to re-reach phase 1's final error, minus the trials
    phase 1 needed to first reach it; a phase that never re-reaches it
    counts as its trial count plus one.
    """
    rng = SplitMix64(seed)
    origin = np.zeros(2)
    dirs = [
        trial_params.reach_length
        * np.array([math.cos(2 * math.pi * k / trial_params.directions),
                    math.sin(2 * math.pi * k / trial_params.directions)])
        for k in range(trial_params.directions)
    ]
    curves: list[tuple[float, ...]] = []
    trial_index = 0
    for angle, trials in sched.phases:
        fld = CurlField(gain=gain, angle=angle)
        errs: list[float] = []
        for _ in range(trials):
            target = dirs[trial_index % len(dirs)]
            l, err = run_trial(
                l,
                fld,
                origin,
                target,
                trial_params.steps,
                trial_params.dt,
                tracking_gain=trial_params.tracking_gain,
                noise=trial_params.noise,
                rng=rng,
            )
            errs.append(err)
            trial_index += 1
        curves.append(tuple(errs))

    interference = math.nan
    savings = math.nan
    if len(curves) >= 2:
        interference = curves[1][0] - curves[0][-1]
    if len(curves) >= 3:
        criterion = curves[0][-1]
        first_reach = next(
            (i + 1 for i, e in enumerate(curves[0]) if e <= criterion),
            len(curves[0]) + 1,
        )
        relearn_reach = next(
            (i + 1 for i, e in enumerate(curves[2]) if e <= criterion),
            len(curves[2]) + 1,
        )
        savings = float(relearn_reach - first_reach)
    return LurResult(
        phase_errors=tuple(curves), interference=interference, savings=savings
    )


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

    def as_array(self) -> np.ndarray:
        return np.array([self.c, self.m, self.y, self.k])


def cmyk_distance(a: CmykPoint, b: CmykPoint) -> float:
    return float(np.linalg.norm(a.as_array() - b.as_array()))


def _clip01(x: float) -> float:
    """``np.clip(x, 0.0, 1.0)`` on one float, signed zeros included."""
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def _inside(weights: tuple[float, float, float], tol: float = 1e-12) -> bool:
    return weights[0] >= -tol and weights[1] >= -tol and weights[2] >= -tol


def _color(weights: tuple[float, float, float]) -> tuple[float, float, float, float]:
    """(c, m, y, k) of barycentric weights."""
    c, m, y = _clip01(weights[0]), _clip01(weights[1]), _clip01(weights[2])
    return c, m, y, 1.0 - max(c, m, y)


class VehicleDivergenceError(RuntimeError):
    """A vehicle step went too far past the arena to be clamped back."""


@dataclass(frozen=True)
class CmykField:
    """Triangle carrying pure C, M, Y at its vertices; colors elsewhere are
    the barycentric mix with k derived as 1 - max(c, m, y).

    Internally, points are answered in batches: one numpy call per
    reduction covers all of them, and each result is bit-identical to the
    same call on that point alone."""

    vertices: np.ndarray  # shape (3, 2): C, M, Y positions

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.shape != (3, 2):
            raise ValueError(f"need three 2-D vertices, got shape {v.shape}")
        area2 = (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1]) - (v[2, 0] - v[0, 0]) * (
            v[1, 1] - v[0, 1]
        )
        if abs(area2) < 1e-12:
            raise ValueError("triangle vertices are collinear")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        a, b, c = v
        object.__setattr__(self, "_edges", np.column_stack([b - a, c - a]))
        sides = np.roll(v, -1, axis=0) - v  # side i runs from vertex i to vertex i + 1
        object.__setattr__(self, "_sides", sides)
        object.__setattr__(self, "_side_sq", np.vecdot(sides, sides).tolist())

    def _barycentric(self, points: list) -> list[tuple[float, float, float]]:
        """(c, m, y) weights of each (x, y) point."""
        rhs = (np.array(points) - self.vertices[0])[:, :, None]
        # Stays numpy: LAPACK's solve (pivoting, fused multiply-adds) rounds
        # differently from plain float formulas, and the vehicle's outputs
        # are pinned to its bits.
        uv = np.linalg.solve(self._edges, rhs).tolist()
        return [(1.0 - u - w, u, w) for (u,), (w,) in uv]

    def _boundary_points(self, points: list) -> list[tuple[float, float]]:
        """Nearest point of the triangle's boundary to each (x, y) point; the
        first side wins a tie."""
        corners = self.vertices.tolist()
        rel = np.array([[(x - ax, y - ay) for ax, ay in corners] for x, y in points])
        feet = []  # foot of each point on each side, clamped to the side
        gaps = []
        for (x, y), along in zip(points, np.vecdot(rel, self._sides).tolist()):
            for (ax, ay), (bx, by), d, sq in zip(corners, self._sides.tolist(), along, self._side_sq):
                t = _clip01(d / sq)
                fx, fy = ax + t * bx, ay + t * by
                feet.append((fx, fy))
                gaps.append((x - fx, y - fy))
        gaps = np.array(gaps)
        with np.errstate(over="ignore"):  # checked on the next line
            squares = np.vecdot(gaps, gaps).tolist()
        if not all(map(math.isfinite, squares)):
            raise VehicleDivergenceError("vehicle step diverged: a point is too far from the arena "
                                         "to clamp (its squared distance overflows)")
        dist = list(map(math.sqrt, squares))
        nearest = []
        for j in range(0, len(feet), 3):
            best = min(range(j, j + 3), key=dist.__getitem__)  # first of equal minima
            nearest.append(feet[best])
        return nearest

    def barycentric(self, pos: np.ndarray) -> np.ndarray:
        x, y = np.asarray(pos, dtype=float).tolist()
        return np.array(self._barycentric([(x, y)])[0])

    def contains(self, pos: np.ndarray, tol: float = 1e-12) -> bool:
        x, y = np.asarray(pos, dtype=float).tolist()
        return _inside(self._barycentric([(x, y)])[0], tol)

    def clamp(self, pos: np.ndarray) -> np.ndarray:
        """Nearest point of the triangle (Euclidean), identity inside."""
        p = np.asarray(pos, dtype=float)
        if self.contains(p):
            return p
        return np.array(self._boundary_points([tuple(p.tolist())])[0])

    def _colors(self, points: list) -> list[tuple[float, float, float, float]]:
        """(c, m, y, k) at each (x, y) point; a point outside the triangle
        takes the color of its nearest boundary point."""
        weights = self._barycentric(points)
        outside = [i for i, w in enumerate(weights) if not _inside(w)]
        if outside:
            clamped = self._boundary_points([points[i] for i in outside])
            for i, w in zip(outside, self._barycentric(clamped)):
                weights[i] = w
        return list(map(_color, weights))

    def _settle(self, point: tuple[float, float]) -> tuple[tuple[float, float],
                                                          tuple[float, float, float, float]]:
        """``clamp`` of one (x, y) point and the color there, with one solve
        for a point inside the triangle: the containment solve's weights are
        the ones ``_colors`` would solve for again."""
        weights = self._barycentric([point])[0]
        if _inside(weights):
            return point, _color(weights)
        on_edge = self._boundary_points([point])[0]
        return on_edge, self._colors([on_edge])[0]


def sample_cmyk(field_: CmykField, pos: np.ndarray) -> CmykPoint:
    """Color at a position; positions outside the triangle are clamped to
    its nearest boundary point first."""
    x, y = np.asarray(pos, dtype=float).tolist()
    return CmykPoint(*field_._colors([(x, y)])[0])


@dataclass(frozen=True)
class Vehicle:
    """Two-sensor gradient follower. Sensors sit at sensor_offset on either
    side of the heading; the turn rate is turn_gain * (left - right) sensed
    distance with the left sensor mounted clockwise of the heading, so the
    vehicle turns toward the side that reads closer to the target. Forward
    speed is speed_gain times the color distance at the body, so the drive
    dies exactly on the target."""

    position: np.ndarray
    heading: float
    sensor_offset: float = 0.05
    speed_gain: float = 0.5
    turn_gain: float = 8.0
    target: CmykPoint = None
    goal_radius: float = 0.05
    # The color at ``position``, set by ``vehicle_step``, which finds it
    # while clamping; None on any vehicle made otherwise (``replace`` too).
    color: CmykPoint | None = field(default=None, init=False, compare=False)

    def __post_init__(self) -> None:
        # Written so that nan fails every check.
        if not (0 < self.sensor_offset < math.inf):
            raise ValueError(f"sensor offset must be positive and finite, got {self.sensor_offset}")
        if not (0 < self.speed_gain < math.inf and 0 <= self.turn_gain < math.inf):
            raise ValueError("gains must be positive and finite (turn gain may be 0 for a "
                             "straight roller)")
        p = np.asarray(self.position, dtype=float).copy()
        if p.shape != (2,) or not all(map(math.isfinite, (*p.tolist(), self.heading))):
            raise ValueError(f"position must be a finite 2-vector and heading finite, "
                             f"got {p} and {self.heading}")
        p.flags.writeable = False
        object.__setattr__(self, "position", p)
        if self.target is None:
            raise ValueError("vehicle needs a target color")


def vehicle_step(v: Vehicle, field_: CmykField, dt: float) -> Vehicle:
    """One Euler step of the sensor-drive loop. The new vehicle carries the
    color at its new position."""
    check_dt(dt)
    h = v.heading
    cos_h, sin_h = math.cos(h), math.sin(h)
    x, y = v.position.tolist()
    off = v.sensor_offset
    # Left sensor mounted clockwise (heading - 90 degrees): the cross-coupled
    # wiring that makes the difference drive attract rather than repel.
    left = (x + off * sin_h, y + off * -cos_h)
    right = (x + off * -sin_h, y + off * cos_h)
    t = v.target
    gaps = np.array(field_._colors([left, right, (x, y)])) - (t.c, t.m, t.y, t.k)
    d_left, d_right, d_body = map(math.sqrt, np.vecdot(gaps, gaps).tolist())
    speed = v.speed_gain * d_body
    new_heading = h + dt * v.turn_gain * (d_left - d_right)
    ahead = dt * speed
    new_pos, color = field_._settle((x + ahead * cos_h, y + ahead * sin_h))
    moved = replace(v, position=np.array(new_pos), heading=new_heading)
    object.__setattr__(moved, "color", CmykPoint(*color))
    return moved


def vehicle_distance(v: Vehicle, field_: CmykField) -> float:
    """Color distance from the vehicle's current position to its target."""
    return cmyk_distance(sample_cmyk(field_, v.position), v.target)


@dataclass(frozen=True)
class StageReport:
    visited: int
    total: int

    @property
    def coverage(self) -> float:
        return self.visited / self.total


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
    for g in goals:
        if len(g) == 0:
            raise ValueError("goal stages must be non-empty")
    for earlier, later in zip(goals, goals[1:]):
        if not set(earlier).issubset(set(later)):
            raise ValueError("goal stages must be nested, each containing the last")

    path: list[np.ndarray] = [np.array(v.position)]
    reports: list[StageReport] = []
    for stage in goals:
        visited: set[CmykPoint] = set()
        for _ in range(T):
            here = sample_cmyk(field_, v.position)
            for tgt in stage:
                if tgt not in visited and cmyk_distance(here, tgt) <= v.goal_radius:
                    visited.add(tgt)
            remaining = [t for t in stage if t not in visited]
            if not remaining:
                break
            nearest = min(remaining, key=lambda t: cmyk_distance(here, t))
            v = replace(v, target=nearest)
            v = vehicle_step(v, field_, dt)
            path.append(np.array(v.position))
        here = sample_cmyk(field_, v.position)
        for tgt in stage:
            if tgt not in visited and cmyk_distance(here, tgt) <= v.goal_radius:
                visited.add(tgt)
        reports.append(StageReport(visited=len(visited), total=len(stage)))
    return path, reports


def equilateral_field(side: float = 1.0) -> CmykField:
    """C at the origin, M to the right, Y above: the standard test arena."""
    return CmykField(
        vertices=np.array(
            [[0.0, 0.0], [side, 0.0], [side / 2.0, side * math.sqrt(3.0) / 2.0]]
        )
    )
