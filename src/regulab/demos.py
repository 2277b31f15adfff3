"""Two toy optimizers annotated as regulators.

Gradient descent on the quadratic bowl f(x) = 0.5 * ||x - target||^2 and
tabular Q-learning on a deterministic gridworld. ``GD_ROLES`` and
``Q_ROLES`` name which component of each plays which part of a closed-loop
regulation motif (system, regulator, internal model, disturbance, goal,
output domain, feedback leg). The assignments are fixed, they are an
interpretation, and the CLI marks each one as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64

ROLES = ("S", "R", "M", "D", "G", "Z", "feedback", "feedforward")
GD_ROLES = {"objective_landscape": "S", "update_rule": "R", "gradient_evaluation": "feedback",
            "iterate": "Z", "target": "G"}
Q_ROLES = {"environment": "S", "q_update": "R", "q_table": "M", "exploration_draws": "D",
           "goal_cell": "G"}


class GdDivergenceError(ValueError):
    """Step size too large for the quadratic objective; iterates diverge."""


class GdOverflowError(RuntimeError):
    """A gradient, or an iterate's distance to the target, is not finite."""


def gd_regulate(
    target: tuple[float, float],
    x0: tuple[float, float],
    lr: float,
    iters: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient descent on 0.5 * ||x - target||^2.

    x_{k+1} = x_k - lr * (x_k - target); the contraction factor is |1 - lr|,
    so lr >= 2 is rejected up front rather than silently blowing up, as is an
    lr that is not > 0 (NaN included). One loop on Python floats fills the
    iterate trajectory, shape (iters + 1, 2), including x0, and the error
    column ||x_k - target|| by ``math.hypot`` (``np.hypot`` calls libm, which
    may round differently). Returns (trajectory, error).
    ``GdOverflowError`` names the first iterate whose gradient x_k - target
    is not finite or, when every gradient is, the first error that is not.
    """
    if not lr > 0:
        raise ValueError(f"step size must be positive, got {lr}")
    if lr >= 2:
        raise GdDivergenceError(
            f"step size {lr} >= 2 diverges on the quadratic objective "
            f"(contraction factor |1 - lr| = {abs(1 - lr):g} >= 1)"
        )
    if iters < 1:
        raise ValueError(f"need at least 1 iteration, got {iters}")
    (tx, ty), (x, y) = map(float, target), map(float, x0)
    traj = np.empty((iters + 1, 2), dtype=float)
    error = np.empty(iters + 1, dtype=float)
    xs, ys = traj.T
    for k in range(iters + 1):
        gx, gy = x - tx, y - ty
        if not (math.isfinite(gx) and math.isfinite(gy)):
            raise GdOverflowError(f"gradient x - target is not finite at iterate {k}")
        xs[k], ys[k], error[k] = x, y, math.hypot(gx, gy)
        x, y = x - lr * gx, y - lr * gy
    if (bad := np.flatnonzero(~np.isfinite(error))).size:
        raise GdOverflowError(f"error is not finite at iteration {bad[0]}")
    return traj, error


MAX_CELLS = 100_000  # per grid: its tables are lists with one entry per cell
MAX_Q_STEPS = 10**9  # per run: about 15 minutes at 0.9 us a step (a 300x300 grid)
STEP_REWARD = -1.0
GOAL_REWARD = 0.0
LEARN_RATE = 0.5
DISCOUNT = 0.9


@dataclass(frozen=True)
class QConfig:
    """Deterministic gridworld with moves N/S/E/W clamped at the walls, at
    most ``MAX_CELLS`` cells. Stepping costs ``STEP_REWARD``; entering the
    goal cell ends the episode with ``GOAL_REWARD``. The table starts at 0
    and learns at ``LEARN_RATE`` with ``DISCOUNT``. An episode ends after
    ``8 * width * height`` steps; a run takes at most ``MAX_Q_STEPS``."""

    width: int
    height: int
    goal_cell: tuple[int, int]
    exploration: float = 0.1
    episodes: int = 500

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.width}x{self.height}")
        if self.width * self.height > MAX_CELLS:
            raise ValueError(f"a grid holds at most {MAX_CELLS} cells, "
                             f"got {self.width}x{self.height}")
        gx, gy = self.goal_cell
        if not (0 <= gx < self.width and 0 <= gy < self.height):
            raise ValueError(f"goal cell {self.goal_cell} is outside the grid")
        if not (0 <= self.exploration <= 1):
            raise ValueError(f"exploration must be in [0, 1], got {self.exploration}")
        if not self.episodes >= 1:  # refuses nan too
            raise ValueError(f"need at least 1 episode, got {self.episodes}")
        if self.episodes * 8 * self.width * self.height > MAX_Q_STEPS:
            raise ValueError(f"a run takes at most {MAX_Q_STEPS} steps, and {self.episodes} "
                             f"episodes of up to {8 * self.width * self.height} steps exceed it")


# N, S, E, W displacements; ties in the greedy argmax break toward the
# lowest action index, which the oracle must mirror.
ACTIONS = ((0, -1), (0, 1), (1, 0), (-1, 0))
ACTION_NAMES = ("N", "S", "E", "W")


def _grid_step(cfg: QConfig, cell: tuple[int, int], a: int) -> tuple[int, int]:
    dx, dy = ACTIONS[a]
    nx = min(max(cell[0] + dx, 0), cfg.width - 1)
    ny = min(max(cell[1] + dy, 0), cfg.height - 1)
    return (nx, ny)


def _argmax(values: list[float]) -> int:
    """Index of the first largest value, as ``np.argmax`` picks it."""
    return values.index(max(values))


def q_regulate(
    cfg: QConfig, seed: int
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], np.ndarray]]:
    """Tabular Q-learning, epsilon-greedy with a fixed epsilon.

    Returns (greedy policy, Q table); the policy maps every
    non-goal cell to the greedy action index after the configured number of
    episodes. The table is learned as lists of floats indexed by cell
    number, row-major from the top-left corner.
    """
    rng = SplitMix64(seed)
    cells = [(x, y) for y in range(cfg.height) for x in range(cfg.width)]
    number = {c: i for i, c in enumerate(cells)}
    goal = number[cfg.goal_cell]
    moves = [[number[_grid_step(cfg, c, a)] for a in range(len(ACTIONS))] for c in cells]
    q = [[0.0] * len(ACTIONS) for _ in cells]  # the goal's row, terminal, stays 0
    step_cap = 8 * cfg.width * cfg.height
    starts = [i for i in range(len(cells)) if i != goal]
    exploration = cfg.exploration
    for _ in range(cfg.episodes):
        if not starts:
            break
        cell = starts[rng.next_below(len(starts))]
        for _ in range(step_cap):
            row = q[cell]
            if rng.next_float() < exploration:
                a = rng.next_below(len(ACTIONS))
            else:
                a = _argmax(row)
            nxt = moves[cell][a]
            done = nxt == goal
            reward = GOAL_REWARD if done else STEP_REWARD
            best_next = 0.0 if done else max(q[nxt])
            row[a] += LEARN_RATE * (reward + DISCOUNT * best_next - row[a])
            cell = nxt
            if done:
                break

    policy = {c: _argmax(q[i]) for i, c in enumerate(cells) if i != goal}
    return policy, {c: np.array(q[i]) for i, c in enumerate(cells)}

