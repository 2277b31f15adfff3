"""Gradient descent and Q-learning demos against closed forms and a
value-iteration oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from regulab import demos
from regulab.demos import (
    ACTION_NAMES,
    ACTIONS,
    DISCOUNT,
    GOAL_REWARD,
    LEARN_RATE,
    STEP_REWARD,
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
from regulab.rng import _AHEAD, _GAMMA, _MIX1, _MIX2, SplitMix64
from test_rng import ScalarMix


# --- gradient descent ---------------------------------------------------------


def test_gd_lr_one_converges_in_one_step():
    traj, _, _ = gd_regulate((3.0, -2.0), (10.0, 10.0), lr=1.0, iters=5)
    assert traj[1].tolist() == [3.0, -2.0]
    assert np.all(traj[1:] == traj[1])


def test_gd_lr_half_halves_error_exactly():
    target = np.array([1.0, 1.0])
    traj, _, _ = gd_regulate((1.0, 1.0), (5.0, -3.0), lr=0.5, iters=20)
    dists = np.linalg.norm(traj - target, axis=1)
    for k in range(1, 21):
        assert dists[k] == dists[0] * 0.5**k


def test_gd_oscillating_convergence_below_two():
    traj, _, _ = gd_regulate((0.0, 0.0), (1.0, 0.0), lr=1.9, iters=200)
    dists = np.linalg.norm(traj, axis=1)
    # contraction factor |1 - 1.9| = 0.9, sign alternates
    assert dists[-1] < 1e-6
    assert traj[0][0] * traj[1][0] < 0 or traj[1][0] * traj[2][0] < 0


def test_gd_error_monotone_for_stable_rates():
    for lr in (0.1, 0.9, 1.5, 1.99):
        traj, _, _ = gd_regulate((2.0, 2.0), (-1.0, 4.0), lr=lr, iters=50)
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


def test_gd_rejects_a_nan_step_size():
    # NaN passes both `lr <= 0` and `lr >= 2` as False; it once ran and
    # failed later as a gradient that is not finite.
    with pytest.raises(ValueError, match="step size must be positive, got nan"):
        gd_regulate((0.0, 0.0), (1.0, 1.0), lr=math.nan, iters=3)


def numpy_gd_regulate(target, x0, lr, iters):
    """Gradient descent as 2-element numpy arithmetic, every gradient checked
    after the run, and the error column by ``math.hypot`` over the rows:
    (trajectory, error), or the ``GdOverflowError`` of the first failing
    check."""
    t = np.asarray(target, dtype=float)
    x = np.asarray(x0, dtype=float)
    traj = np.empty((iters + 1, 2))
    traj[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iters):
            x = x - lr * (x - t)
            traj[k + 1] = x
        bad = np.flatnonzero(~np.isfinite(traj - t).all(axis=1))
    if bad.size:
        raise GdOverflowError(f"gradient x - target is not finite at iterate {bad[0]}")
    error = np.array([math.hypot(x - target[0], y - target[1]) for x, y in traj.tolist()])
    if (bad := np.flatnonzero(~np.isfinite(error))).size:
        raise GdOverflowError(f"error is not finite at iteration {bad[0]}")
    return traj, error


finite_pairs = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2)


@settings(max_examples=500, deadline=None)
@given(target=finite_pairs, x0=finite_pairs,
       lr=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
       iters=st.integers(1, 300))
@example(target=(0.0, -0.0), x0=(-0.0, 0.0), lr=1.0, iters=3)
@example(target=(5e-324, -5e-324), x0=(0.0, 0.0), lr=0.3, iters=100)
@example(target=(1e308, -0.5), x0=(-1e307, 0.0), lr=1.5, iters=50)
@example(target=(0.0, 0.0), x0=(1.0, -1.0), lr=5e-324, iters=2)
@example(target=(0.0, 0.0), x0=(1.0, -1.0), lr=math.nextafter(2.0, 0.0), iters=300)
@example(target=(0.0, 0.0), x0=(1e308, 0.0), lr=1.9, iters=3)  # the gradient overflows
@example(target=(1.5e308, -1.5e308), x0=(0.0, 0.0), lr=0.5, iters=2)  # only the error does
# The error overflows at iterate 0 and the gradient at iterate 1: the gradient is named.
@example(target=(0.0, 0.0), x0=(1.5e308, 1.5e308), lr=1.9, iters=3)
def test_gd_matches_the_numpy_reference_bit_for_bit(target, x0, lr, iters):
    try:
        want_traj, want_error = numpy_gd_regulate(target, x0, lr, iters)
    except GdOverflowError as exc:
        with pytest.raises(GdOverflowError) as got:
            gd_regulate(target, x0, lr, iters)
        assert str(got.value) == str(exc)
        return
    traj, error, _ = gd_regulate(target, x0, lr, iters)
    assert traj.tobytes() == want_traj.tobytes()
    assert error.tobytes() == want_error.tobytes()


def test_gd_role_annotation_total():
    _, _, ann = gd_regulate((0.0, 0.0), (1.0, 1.0), lr=0.5, iters=1)
    assert set(ann.assignments) == {
        "objective_landscape", "update_rule", "gradient_evaluation", "iterate", "target",
    }
    assert ann.assignments["objective_landscape"] == "S"
    assert ann.assignments["update_rule"] == "R"
    assert ann.assignments["gradient_evaluation"] == "feedback"


def test_role_annotation_rejects_unknown_role():
    with pytest.raises(ValueError):
        RoleAnnotation(assignments={"thing": "X"})


# --- Q-learning ------------------------------------------------------------------


def three_by_three():
    return QConfig(width=3, height=3, goal_cell=(2, 2), exploration=0.2, episodes=3000)


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
                r = GOAL_REWARD if nxt == cfg.goal_cell else STEP_REWARD
                val = r + DISCOUNT * (0.0 if nxt == cfg.goal_cell else v[nxt])
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
            r = GOAL_REWARD if nxt == cfg.goal_cell else STEP_REWARD
            vals.append(r + DISCOUNT * (0.0 if nxt == cfg.goal_cell else v[nxt]))
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
    # A table of 0 is optimistic: every return is negative, so a greedy
    # learner still tries each action.
    cfg = QConfig(width=3, height=3, goal_cell=(2, 2), exploration=0.0, episodes=5000)
    policy, q, _ = q_regulate(cfg, seed=3)
    assert policy == value_iteration_policy(cfg)
    bound = max(STEP_REWARD, GOAL_REWARD) / (1.0 - DISCOUNT)
    for values in q.values():
        assert np.all(values <= bound + 1e-9)


def test_q_values_bounded():
    cfg = three_by_three()
    _, q, _ = q_regulate(cfg, seed=11)
    bound = max(STEP_REWARD, GOAL_REWARD) / (1.0 - DISCOUNT)
    for values in q.values():
        assert np.all(values <= bound + 1e-9)


def test_q_myopic_discount_zero(monkeypatch):
    # The update bootstraps through DISCOUNT: at 0 each value is the reward
    # of one step, so the cells next to the goal step straight onto it.
    monkeypatch.setattr(demos, "DISCOUNT", 0.0)
    cfg = QConfig(width=3, height=3, goal_cell=(2, 2), exploration=0.3, episodes=4000)
    policy, _, _ = q_regulate(cfg, seed=5)
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


@pytest.mark.parametrize("name, message", [("exploration", "exploration"), ("episodes", "episode")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_q_config_rejects_nonfinite_values(name, message, value):
    with pytest.raises(ValueError, match=message):
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
    q = {c: np.zeros(len(ACTIONS)) for c in cells}
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
            reward = GOAL_REWARD if done else STEP_REWARD
            best_next = 0.0 if done else float(np.max(q[nxt]))
            q[cell][a] += LEARN_RATE * (reward + DISCOUNT * best_next - q[cell][a])
            cell = nxt
            if done:
                break
    return q


@pytest.mark.parametrize("seed", range(4))
def test_q_matches_numpy_reference_bit_for_bit(seed):
    r = np.random.default_rng(seed)
    w, h = (int(n) for n in r.integers(2, 7, 2))
    cfg = QConfig(width=w, height=h, goal_cell=(int(r.integers(w)), int(r.integers(h))),
                  exploration=float(r.uniform(0, 0.5)), episodes=300)
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


def scalar_q_regulate(cfg, rng):
    """``q_regulate``'s loop with one ``next_float`` or ``next_below`` call
    per draw: the Q table as one list of floats per cell number."""
    cells = [(x, y) for y in range(cfg.height) for x in range(cfg.width)]
    number = {c: i for i, c in enumerate(cells)}
    goal = number[cfg.goal_cell]
    moves = [[number[_grid_step(cfg, c, a)] for a in range(len(ACTIONS))] for c in cells]
    q = [[0.0] * len(ACTIONS) for _ in cells]
    starts = [i for i in range(len(cells)) if i != goal]
    for _ in range(cfg.episodes):
        if not starts:
            break
        cell = starts[rng.next_below(len(starts))]
        for _ in range(8 * cfg.width * cfg.height):
            row = q[cell]
            if rng.next_float() < cfg.exploration:
                a = rng.next_below(len(ACTIONS))
            else:
                a = row.index(max(row))
            nxt = moves[cell][a]
            done = nxt == goal
            reward = GOAL_REWARD if done else STEP_REWARD
            best_next = 0.0 if done else max(q[nxt])
            row[a] += LEARN_RATE * (reward + DISCOUNT * best_next - row[a])
            cell = nxt
            if done:
                break
    return q


def q_draws_match_scalar_draws(cfg, seed, monkeypatch):
    """Check ``q_regulate(cfg, seed)``'s table, and its generator's final
    state, against ``scalar_q_regulate``'s; return the number of draws."""
    made = []

    class Recorded(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(demos, "SplitMix64", Recorded)
    _, q, _ = q_regulate(cfg, seed)
    got, = made
    rng = ScalarMix(seed)
    want = scalar_q_regulate(cfg, rng)
    cells = [(x, y) for y in range(cfg.height) for x in range(cfg.width)]
    assert np.array([q[c].tolist() for c in cells]).tobytes() == np.array(want).tobytes()
    assert got._state == rng._state
    return (rng._state - seed) * pow(_GAMMA, -1, 2**64) % 2**64


@pytest.mark.parametrize("seed", [0, 11, 2**64 - 1])
@pytest.mark.parametrize("exploration", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("size, episodes", [(1, 5), (3, 300), (8, 60)])
def test_q_block_draws_match_scalar_draws(size, episodes, exploration, seed, monkeypatch):
    cfg = QConfig(width=size, height=size, goal_cell=(size - 1, size - 1), episodes=episodes,
                  exploration=exploration)
    q_draws_match_scalar_draws(cfg, seed, monkeypatch)


@pytest.mark.parametrize("episodes", [1, 3])
def test_q_run_that_ends_inside_the_first_block(episodes, monkeypatch):
    cfg = QConfig(width=3, height=3, goal_cell=(2, 2), episodes=episodes)
    assert 0 < q_draws_match_scalar_draws(cfg, 5, monkeypatch) < _AHEAD


def test_q_run_over_many_blocks(monkeypatch):
    # Every step explores: two draws a step, over 900 look-ahead blocks.
    cfg = QConfig(width=8, height=8, goal_cell=(7, 7), episodes=500, exploration=1.0)
    assert q_draws_match_scalar_draws(cfg, 3, monkeypatch) > 20 * _AHEAD


def unmix(z):
    """The SplitMix64 state whose output is ``z``: its finalizer inverted."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = unshift(z * pow(_MIX2, -1, 2**64) % 2**64, 27)
    return unshift(z * pow(_MIX1, -1, 2**64) % 2**64, 30)


def test_q_rejected_start_draw_is_redrawn(monkeypatch):
    # A 2x2 grid has three start cells, and next_below(3) rejects only the
    # draw 2**64 - 1: the seed puts it first.
    seed = (unmix(2**64 - 1) - _GAMMA) % 2**64
    assert SplitMix64(seed).next_u64() == 2**64 - 1
    cfg = QConfig(width=2, height=2, goal_cell=(1, 1), episodes=20, exploration=0.5)
    q_draws_match_scalar_draws(cfg, seed, monkeypatch)
