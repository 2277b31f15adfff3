"""Gradient descent and Q-learning demos against closed forms and a
value-iteration oracle."""

import math

import numpy as np
import pytest

from regulab.demos import (
    ACTION_NAMES,
    ACTIONS,
    GdDivergenceError,
    GdOverflowError,
    MAX_CELLS,
    MAX_Q_STEPS,
    QConfig,
    RoleAnnotation,
    _grid_step,
    gd_regulate,
    q_regulate,
)
from regulab.rng import SplitMix64


# --- gradient descent ---------------------------------------------------------


def test_gd_lr_one_converges_in_one_step():
    traj, _ = gd_regulate((3.0, -2.0), (10.0, 10.0), lr=1.0, iters=5)
    assert traj[1].tolist() == [3.0, -2.0]
    assert np.all(traj[1:] == traj[1])


def test_gd_lr_half_halves_error_exactly():
    target = np.array([1.0, 1.0])
    traj, _ = gd_regulate((1.0, 1.0), (5.0, -3.0), lr=0.5, iters=20)
    dists = np.linalg.norm(traj - target, axis=1)
    for k in range(1, 21):
        assert dists[k] == dists[0] * 0.5**k


def test_gd_oscillating_convergence_below_two():
    traj, _ = gd_regulate((0.0, 0.0), (1.0, 0.0), lr=1.9, iters=200)
    dists = np.linalg.norm(traj, axis=1)
    # contraction factor |1 - 1.9| = 0.9, sign alternates
    assert dists[-1] < 1e-6
    assert traj[0][0] * traj[1][0] < 0 or traj[1][0] * traj[2][0] < 0


def test_gd_error_monotone_for_stable_rates():
    for lr in (0.1, 0.9, 1.5, 1.99):
        traj, _ = gd_regulate((2.0, 2.0), (-1.0, 4.0), lr=lr, iters=50)
        dists = np.linalg.norm(traj - np.array([2.0, 2.0]), axis=1)
        assert np.all(np.diff(dists) <= 1e-15)


def test_gd_divergent_rate_is_diagnosed():
    with pytest.raises(GdDivergenceError, match="2.1"):
        gd_regulate((0.0, 0.0), (1.0, 1.0), lr=2.1, iters=10)
    with pytest.raises(ValueError):
        gd_regulate((0.0, 0.0), (1.0, 1.0), lr=-0.5, iters=10)


def test_gd_overflowing_gradient_is_diagnosed_at_its_iterate():
    # x0 - target = -2e308 overflows at once; later iterates are inf.
    with np.errstate(all="raise"), pytest.raises(GdOverflowError, match="iterate 0"):
        gd_regulate((1e308, 0.0), (-1e308, 0.0), lr=0.5, iters=2)
    # The gradient 1e308 is finite, but lr * 1e308 is not: iterate 1 is -inf.
    with np.errstate(all="raise"), pytest.raises(GdOverflowError, match="iterate 1"):
        gd_regulate((0.0, 0.0), (1e308, 0.0), lr=1.9, iters=3)


def test_gd_role_annotation_total():
    _, ann = gd_regulate((0.0, 0.0), (1.0, 1.0), lr=0.5, iters=1)
    assert set(ann.assignments) == {
        "objective_landscape", "update_rule", "gradient_evaluation", "iterate", "target",
    }
    assert ann.assignments["objective_landscape"] == "S"
    assert ann.assignments["update_rule"] == "R"
    assert ann.assignments["gradient_evaluation"] == "feedback"
    assert ann.interpretive


def test_role_annotation_rejects_unknown_role():
    with pytest.raises(ValueError):
        RoleAnnotation(assignments={"thing": "X"})


# --- Q-learning ------------------------------------------------------------------


def three_by_three():
    return QConfig(
        width=3, height=3, goal_cell=(2, 2),
        step_reward=-1.0, goal_reward=0.0,
        learn_rate=0.5, discount=0.9, exploration=0.2, episodes=3000,
    )


def value_iteration_policy(
    cfg: QConfig, tol: float = 1e-12, max_sweeps: int = 100_000
) -> dict[tuple[int, int], int]:
    """Independent optimal policy for the same gridworld, by value iteration
    with the same lowest-index tie-break."""
    cells = [(x, y) for y in range(cfg.height) for x in range(cfg.width)]
    v = {c: 0.0 for c in cells}
    for _ in range(max_sweeps):
        delta = 0.0
        for c in cells:
            if c == cfg.goal_cell:
                continue
            best = -np.inf
            for a in range(len(ACTIONS)):
                nxt = _grid_step(cfg, c, a)
                r = cfg.goal_reward if nxt == cfg.goal_cell else cfg.step_reward
                val = r + cfg.discount * (0.0 if nxt == cfg.goal_cell else v[nxt])
                best = max(best, val)
            delta = max(delta, abs(best - v[c]))
            v[c] = best
        if delta < tol:
            break
    policy = {}
    for c in cells:
        if c == cfg.goal_cell:
            continue
        vals = []
        for a in range(len(ACTIONS)):
            nxt = _grid_step(cfg, c, a)
            r = cfg.goal_reward if nxt == cfg.goal_cell else cfg.step_reward
            vals.append(r + cfg.discount * (0.0 if nxt == cfg.goal_cell else v[nxt]))
        policy[c] = int(np.argmax(vals))
    return policy


def test_q_one_by_one_grid_trivial():
    cfg = QConfig(width=1, height=1, goal_cell=(0, 0), episodes=10)
    policy, q, _ = q_regulate(cfg, seed=0)
    assert policy == {}


def test_q_matches_value_iteration_oracle():
    cfg = three_by_three()
    policy, _, _ = q_regulate(cfg, seed=7)
    oracle = value_iteration_policy(cfg)
    assert policy == oracle


def test_q_oracle_is_shortest_path():
    # goal at (2,2): everything should head east/south
    oracle = value_iteration_policy(three_by_three())
    for cell, action in oracle.items():
        assert ACTION_NAMES[action] in ("S", "E")


def test_q_epsilon_zero_optimistic_init_converges():
    cfg = QConfig(
        width=3, height=3, goal_cell=(2, 2),
        step_reward=-1.0, goal_reward=0.0,
        learn_rate=0.5, discount=0.9, exploration=0.0,
        episodes=5000, init_value=1.0,
    )
    policy, q, _ = q_regulate(cfg, seed=3)
    assert policy == value_iteration_policy(cfg)
    bound = max(cfg.step_reward, cfg.goal_reward) / (1.0 - cfg.discount)
    for values in q.values():
        assert np.all(values <= bound + 1e-9)


def test_q_values_bounded():
    cfg = three_by_three()
    _, q, _ = q_regulate(cfg, seed=11)
    bound = max(cfg.step_reward, cfg.goal_reward) / (1.0 - cfg.discount)
    for values in q.values():
        assert np.all(values <= bound + 1e-9)


def test_q_myopic_discount_zero():
    cfg = QConfig(
        width=3, height=3, goal_cell=(2, 2), step_reward=-1.0, goal_reward=0.0,
        learn_rate=0.5, discount=0.0, exploration=0.3, episodes=4000,
    )
    policy, _, _ = q_regulate(cfg, seed=5)
    # adjacent cells step straight onto the goal
    assert ACTION_NAMES[policy[(1, 2)]] == "E"
    assert ACTION_NAMES[policy[(2, 1)]] == "S"


def test_q_role_annotation():
    _, _, ann = q_regulate(three_by_three(), seed=1)
    assert ann.assignments == {
        "environment": "S",
        "q_update": "R",
        "q_table": "M",
        "exploration_draws": "D",
        "goal_cell": "G",
    }


def test_q_config_validation():
    with pytest.raises(ValueError):
        QConfig(width=3, height=3, goal_cell=(5, 5))
    with pytest.raises(ValueError):
        QConfig(width=0, height=3, goal_cell=(0, 0))
    with pytest.raises(ValueError):
        QConfig(width=3, height=3, goal_cell=(0, 0), discount=1.0)


@pytest.mark.parametrize("name", ["step_reward", "goal_reward", "init_value"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_q_config_rejects_nonfinite_values(name, value):
    with pytest.raises(ValueError, match=name.replace("_", " ")):
        QConfig(width=3, height=3, goal_cell=(2, 2), **{name: value})


@pytest.mark.parametrize("width, height", [(MAX_CELLS + 1, 1), (1, MAX_CELLS + 1),
                                           (100_000, 100_000), (10**30, 10**30)])
def test_q_config_bounds_the_cell_count(width, height):
    with pytest.raises(ValueError, match=f"at most {MAX_CELLS} cells"):
        QConfig(width=width, height=height, goal_cell=(0, 0))


def test_q_config_takes_a_grid_of_max_cells():
    assert QConfig(width=MAX_CELLS, height=1, goal_cell=(0, 0)).width == MAX_CELLS


def test_q_config_bounds_the_worst_case_step_count():
    # A 5x5 grid ends an episode after at most 200 steps.
    assert QConfig(width=5, height=5, goal_cell=(0, 0), episodes=MAX_Q_STEPS // 200).episodes
    with pytest.raises(ValueError, match=f"at most {MAX_Q_STEPS} steps"):
        QConfig(width=5, height=5, goal_cell=(0, 0), episodes=MAX_Q_STEPS // 200 + 1)


@pytest.mark.parametrize("episodes", [0, -1])
def test_q_config_rejects_nonpositive_episodes(episodes):
    with pytest.raises(ValueError, match="episode"):
        QConfig(width=3, height=3, goal_cell=(2, 2), episodes=episodes)


def reference_q_table(cfg, seed):
    """``q_regulate``'s table learned with one numpy row per cell."""
    rng = SplitMix64(seed)
    cells = [(x, y) for y in range(cfg.height) for x in range(cfg.width)]
    q = {c: np.full(len(ACTIONS), cfg.init_value, dtype=float) for c in cells}
    q[cfg.goal_cell] = np.zeros(len(ACTIONS))
    starts = [c for c in cells if c != cfg.goal_cell]
    for _ in range(cfg.episodes):
        cell = starts[rng.next_below(len(starts))]
        for _ in range(8 * cfg.width * cfg.height):
            if rng.next_float() < cfg.exploration:
                a = rng.next_below(len(ACTIONS))
            else:
                a = int(np.argmax(q[cell]))
            dx, dy = ACTIONS[a]
            nxt = (min(max(cell[0] + dx, 0), cfg.width - 1), min(max(cell[1] + dy, 0), cfg.height - 1))
            done = nxt == cfg.goal_cell
            reward = cfg.goal_reward if done else cfg.step_reward
            best_next = 0.0 if done else float(np.max(q[nxt]))
            q[cell][a] += cfg.learn_rate * (reward + cfg.discount * best_next - q[cell][a])
            cell = nxt
            if done:
                break
    return q


@pytest.mark.parametrize("seed", range(4))
def test_q_matches_numpy_reference_bit_for_bit(seed):
    r = np.random.default_rng(seed)
    w, h = (int(n) for n in r.integers(2, 7, 2))
    cfg = QConfig(width=w, height=h, goal_cell=(int(r.integers(w)), int(r.integers(h))),
                  learn_rate=float(r.uniform(0.1, 1.0)), discount=float(r.uniform(0, 0.99)),
                  exploration=float(r.uniform(0, 0.5)), episodes=300,
                  init_value=float(r.choice([0.0, 1.0, -2.5])))
    policy, q, _ = q_regulate(cfg, seed)
    want = reference_q_table(cfg, seed)
    assert sorted(q) == sorted(want)
    for cell in q:
        assert q[cell].tobytes() == want[cell].tobytes()
        if cell != cfg.goal_cell:
            assert policy[cell] == int(np.argmax(want[cell]))


def test_q_determinism():
    cfg = three_by_three()
    a = q_regulate(cfg, seed=9)
    b = q_regulate(cfg, seed=9)
    assert a[0] == b[0]
    for cell in a[1]:
        assert np.array_equal(a[1][cell], b[1][cell])
