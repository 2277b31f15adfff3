"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one `ACCEPT <n> PASS|FAIL <title>` line (run with -s to
see them) and asserts the criterion. The whole module stays under a
minute on one core.
"""

import hashlib
import itertools
import math

import numpy as np

from regulab.cli import dispatch
from regulab.criticality import (
    BurstSchedule,
    accumulate_release,
    gen_power_series,
    nfb_map,
    pfb_map,
    smooth_model,
    threshold_model,
)
from regulab.demos import gd_regulate, q_regulate
from regulab.diffusion import (
    GrayImage,
    PowerMask,
    UniformBlend,
    blend,
    gen_noise_field,
    image_stats,
    pgm_bytes,
    read_pgm,
    synthetic_portrait,
)
from regulab.pid import PidGains, PidState, pid_step, simulate_pid
from regulab.procedural import (
    CurlField,
    LurSchedule,
    ReachLearner,
    cmyk_distance,
    equilateral_field,
    run_lur,
    run_trial,
    sample_cmyk,
    vehicle_step,
)
from regulab.relation import path_regulation_score, point_regulation_score
from regulab.rng import SplitMix64
from regulab.variety import (
    MappingTag,
    StateMapping,
    StateSet,
    classify_mapping,
    forward_apply,
    inverse_apply,
    requisite_variety_check,
)
from tests.test_demos import three_by_three, value_iteration_policy
from tests.test_procedural import fixture_vehicle
from tests.test_relation import outputs_trajectory


def report(number: int, title: str, ok: bool) -> None:
    print(f"ACCEPT {number:2d} {'PASS' if ok else 'FAIL'} {title}")
    assert ok, f"criterion {number}: {title}"


def test_criterion_01_rank_order_exactness():
    n = 10_000
    ps = gen_power_series(n, 1.0, seed=20_240_601)
    expected = np.array([t ** -1.0 for t in range(1, n + 1)])
    ordered = np.sort(ps)[::-1]
    ok = bool(np.max(np.abs(ordered - expected) / expected) <= 1e-12)
    report(1, "rank-order of permuted power series is the exact power curve", ok)


def test_criterion_02_comparator_maps_match_oracles():
    rng = SplitMix64(424242)
    ok = True
    for _ in range(100):
        s = np.array([rng.next_float() for _ in range(1000)])
        pfb_oracle = np.array([(s[i] + s[i + 1]) / 2.0 for i in range(999)])
        nfb_oracle = np.array([abs(s[i] - s[i + 1]) for i in range(999)])
        ok &= bool(np.max(np.abs(pfb_map(s) - pfb_oracle)) <= 1e-15)
        ok &= bool(np.max(np.abs(nfb_map(s) - nfb_oracle)) <= 1e-15)
    const = np.full(1000, 0.77)
    ok &= bool(np.all(nfb_map(const) == 0.0))
    report(2, "comparator maps equal brute-force oracles", ok)


def test_criterion_03_burst_conservation_and_counts():
    sched = BurstSchedule(4, 10)
    ok = True
    for seed in range(50):
        rng = SplitMix64(seed)
        s = np.array([rng.next_float() for _ in range(1001)])
        bursts, times = accumulate_release(s, sched, seed=10_000 + seed)
        total = math.fsum(s)
        residue = math.fsum(s[times[-1] + 1 :])
        ok &= abs((math.fsum(bursts) + residue) - total) <= 1e-12 * abs(total)
        ok &= 91 <= len(times) <= 251
    report(3, "accumulate/release conserves mass, release count in bounds", ok)


def test_criterion_04_threshold_closed_form():
    n = 10_000
    curve, _ = threshold_model(n, 0.1)
    expected = np.array([(n - i) ** -0.1 for i in range(n)])
    ok = bool(np.max(np.abs(curve - expected)) <= 1e-12)
    ok &= bool(np.all(np.diff(curve) >= 0))
    report(4, "threshold curve equals closed form and is monotone", ok)


def test_criterion_05_smoothing():
    ps = gen_power_series(10_000, 1.0, seed=5)
    out = smooth_model(ps, 100)
    ok = out.shape == (100,) and abs(out.mean() - ps.mean()) <= 1e-12
    report(5, "block smoothing keeps length n/factor and the grand mean", ok)


def test_criterion_06_pid():
    out, _ = pid_step(PidGains(kp=2.0), PidState(), error=0.5, dt=0.01)
    ok = out == 1.0

    p_traj = simulate_pid(
        PidGains(kp=1.0), 1.0, setpoint=1.0, x0=0.0, dt=0.01, T=10_000, disturbance=-0.5
    )
    pi_traj = simulate_pid(
        PidGains(kp=1.0, ti=1.0), 1.0, setpoint=1.0, x0=0.0, dt=0.01, T=10_000,
        disturbance=-0.5,
    )
    ok &= abs(p_traj.e[-1]) >= 0.4
    ok &= abs(pi_traj.e[-1]) < 1e-3

    rng = SplitMix64(606)
    errors = [rng.next_float() * 4.0 - 2.0 for _ in range(200)]
    gains = PidGains(kp=1.2, ti=0.7, td=0.05)
    c = 3.7

    def run_seq(seq):
        st = PidState()
        outs = []
        for e in seq:
            o, st = pid_step(gains, st, e, 0.01)
            outs.append(o)
        return outs

    base = run_seq(errors)
    scaled = run_seq([c * e for e in errors])
    ok &= all(
        abs(s - c * b) <= 1e-12 * max(abs(s), abs(c * b), 1e-300)
        for b, s in zip(base, scaled)
    )
    report(6, "PID: exact P term, PI beats P on disturbance, linear in error", ok)


def test_criterion_07_diffusion():
    img = synthetic_portrait(64, 48)
    noise = gen_noise_field(64, 48, UniformBlend(1.0), seed=7)
    ok = np.array_equal(blend(img, noise, 0.0).pixels, img.pixels)
    ok &= np.array_equal(blend(img, noise, 1.0).pixels, noise.pixels)

    for a in (0.2, 1.0, 3.0):
        field = gen_noise_field(500, 200, PowerMask(shape=a), seed=70 + int(a * 10))
        mean, _ = image_stats(field)
        ok &= abs(mean - a / (a + 1.0)) <= 0.01

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        quant = np.arange(256, dtype=float).reshape(16, 16) / 255.0
        src = GrayImage(width=16, height=16, pixels=quant)
        p1 = Path(tmp) / "a.pgm"
        p1.write_bytes(pgm_bytes(src))
        back = read_pgm(p1)
        ok &= np.array_equal(back.pixels, src.pixels)
        ok &= pgm_bytes(back) == p1.read_bytes()
    report(7, "blend extremes bit-exact, power means analytic, PGM round-trip", ok)


def test_criterion_08_variety():
    small = StateMapping(
        r_states=StateSet(("r1", "r2", "r3")),
        s_states=StateSet(("s1", "s2", "s3", "s4", "s5", "s6")),
        pairs=(("r1", "s1"), ("r2", "s2"), ("r3", "s3")),
    )
    cls_small = classify_mapping(small)
    ok = cls_small.tag is MappingTag.UNDERSPECIFIED
    ok &= requisite_variety_check(small).satisfied

    big_r = tuple(f"r{i}" for i in range(20))
    big = StateMapping(
        r_states=StateSet(big_r),
        s_states=StateSet(("s1", "s2", "s3")),
        pairs=tuple((r, f"s{(i % 3) + 1}") for i, r in enumerate(big_r)),
    )
    cls_big = classify_mapping(big)
    ok &= cls_big.tag is MappingTag.ALIASED
    ok &= not requisite_variety_check(big).satisfied

    # adjointness, brute force over sets of size <= 6: exhaustive over all
    # relations on 2x2 label sets, seeded random relations at larger sizes
    r2 = ("a", "b")
    s2 = ("x", "y")
    all_pairs = list(itertools.product(r2, s2))
    for bits in range(1, 16):
        chosen = tuple(p for i, p in enumerate(all_pairs) if bits >> i & 1)
        m = StateMapping(r_states=StateSet(r2), s_states=StateSet(s2), pairs=chosen)
        for r in r2:
            for s in s2:
                ok &= (s in forward_apply(m, r)) == (r in inverse_apply(m, s))
    rng = SplitMix64(88)
    for _ in range(200):
        n_r = rng.next_int(1, 6)
        n_s = rng.next_int(1, 6)
        r_labels = tuple(f"r{i}" for i in range(n_r))
        s_labels = tuple(f"s{i}" for i in range(n_s))
        pool = list(itertools.product(r_labels, s_labels))
        count = rng.next_int(1, len(pool))
        order = np.arange(len(pool))
        rng.shuffle(order)
        m = StateMapping(
            r_states=StateSet(r_labels), s_states=StateSet(s_labels),
            pairs=tuple(pool[i] for i in order[:count]),
        )
        for r in r_labels:
            for s in s_labels:
                ok &= (s in forward_apply(m, r)) == (r in inverse_apply(m, s))
    report(8, "capacity verdicts reproduced, forward/inverse maps adjoint", ok)


def test_criterion_09_procedural_learning():
    sched = LurSchedule(((0.0, 200), (90.0, 200), (0.0, 200)))
    inter_pos = 0
    sav_neg = 0
    for seed in range(20):
        res = run_lur(ReachLearner(), sched, noise=0.02, gain=1.0, seed=seed)
        inter_pos += res.interference > 0
        sav_neg += res.savings < 0
    ok = inter_pos == 20 and sav_neg >= 16

    learner = ReachLearner(rate=0.35, slow_rate=0.035, fast_retention=1.0)
    fld = CurlField(gain=1.0, angle=90.0)
    dirs = [
        np.array([math.cos(2 * math.pi * k / 8), math.sin(2 * math.pi * k / 8)])
        for k in range(8)
    ]
    for t in range(400):
        learner, _ = run_trial(learner, fld, np.zeros(2), dirs[t % 8], 60, 0.01)
    ok &= bool(np.linalg.norm(learner.comp - fld.matrix) < 1e-3)
    report(9, "interference 20/20, savings negative >= 16/20, delta rule converges", ok)


def test_criterion_10_cmyk_vehicle():
    field = equilateral_field()
    a, b, c = field.vertices
    rng = SplitMix64(1010)
    ok = True
    for _ in range(1000):
        u, v = rng.next_float(), rng.next_float()
        w1, w2 = u * (1 - v), v * (1 - u)
        pos = a + w1 * (b - a) + w2 * (c - a)
        color = sample_cmyk(field, pos)
        ok &= abs(color.c + color.m + color.y - 1.0) <= 1e-12

    vehicle = fixture_vehicle(field)
    d_prev = cmyk_distance(sample_cmyk(field, vehicle.position), vehicle.target)
    entered = False
    for _ in range(10_000):
        vehicle = vehicle_step(vehicle, field, dt=0.02)
        d = vehicle.distance
        ok &= d <= d_prev + 1e-12
        d_prev = d
        if d <= vehicle.goal_radius:
            entered = True
            break
    ok &= entered
    report(10, "barycentric identity holds, vehicle descends into the goal", ok)


def test_criterion_11_demos():
    traj, _, _ = gd_regulate((4.0, -1.0), (0.0, 0.0), lr=1.0, iters=3)
    ok = traj[1].tolist() == [4.0, -1.0]

    target = np.array([1.0, 2.0])
    traj, _, _ = gd_regulate((1.0, 2.0), (9.0, -6.0), lr=0.5, iters=16)
    dists = np.linalg.norm(traj - target, axis=1)
    ok &= all(dists[k] == dists[0] * 0.5**k for k in range(1, 17))

    cfg = three_by_three()
    policy, _, _ = q_regulate(cfg, seed=7)
    ok &= policy == value_iteration_policy(cfg)
    report(11, "gradient descent closed forms, Q-learning matches oracle", ok)


def test_criterion_12_determinism_and_metrics(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        code = dispatch(
            ["avalanche", "bursts", "--n", "1001", "--seed", "33", "-o", str(out)]
        )
        assert code == 0
    ok = hashlib.sha256(a.read_bytes()).digest() == hashlib.sha256(b.read_bytes()).digest()

    ok &= point_regulation_score(outputs_trajectory([0.42] * 100), bins=8) == 0.0
    cycle = [float(k % 8) for k in range(800)]
    ok &= point_regulation_score(outputs_trajectory(cycle), bins=8) == 3.0

    rng = SplitMix64(1212)
    for _ in range(100):
        n = rng.next_int(2, 400)
        outputs = [rng.next_float() for _ in range(n)]
        traj = outputs_trajectory(outputs)
        bins = rng.next_int(2, 8)
        ok &= path_regulation_score(traj, 1, bins) <= point_regulation_score(traj, bins) + 1e-9
    report(12, "seeded runs byte-identical, entropy scores exact and ordered", ok)
