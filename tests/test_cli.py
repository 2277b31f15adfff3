"""Front end: exit codes, output format, determinism, manifests."""

import hashlib
import json
from pathlib import Path

from regulab.cli import dispatch


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(args) -> int:
    return dispatch([str(a) for a in args])


def test_avalanche_gen_smoke(tmp_path):
    out = tmp_path / "out.csv"
    assert run(["avalanche", "gen", "--n", 100, "--e", 1.0, "--seed", 7, "-o", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# params: ")
    assert lines[1] == "tick,value"
    assert len(lines) == 102


def test_invalid_exponent_is_usage_error(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    code = run(["avalanche", "gen", "--e", -1, "--seed", 7, "-o", out])
    assert code == 2
    assert "-1" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_exit_2(tmp_path):
    assert run(["frobnicate", "--seed", 1, "-o", tmp_path / "x.csv"]) == 2


def test_missing_seed_is_usage_error(tmp_path):
    assert run(["avalanche", "gen", "-o", tmp_path / "x.csv"]) == 2


def test_same_seed_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run(["avalanche", "bursts", "--n", 500, "--seed", 99, "-o", out]) == 0
    assert digest(a) == digest(b)


def test_different_seed_differs(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["avalanche", "gen", "--n", 500, "--seed", 1, "-o", a]) == 0
    assert run(["avalanche", "gen", "--n", 500, "--seed", 2, "-o", b]) == 0
    assert digest(a) != digest(b)


def test_manifest_written_once_with_seed_and_rng(tmp_path):
    out = tmp_path / "out.csv"
    assert run(["avalanche", "gen", "--n", 50, "--seed", 41, "-o", out]) == 0
    manifest_path = tmp_path / "out.csv.manifest.jsonl"
    lines = manifest_path.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["seed"] == 41
    assert record["rng"] == "splitmix64"
    assert record["outputs"] == [str(out)]
    assert record["subcommand"] == "avalanche"


def test_manifest_replay_reproduces_outputs(tmp_path):
    out = tmp_path / "out.csv"
    assert run(["avalanche", "bursts", "--n", 300, "--interval-min", 4,
                "--interval-max", 10, "--seed", 13, "-o", out]) == 0
    record = json.loads((tmp_path / "out.csv.manifest.jsonl").read_text())
    replay = tmp_path / "replay.csv"
    params = record["params"]
    code = run([
        "avalanche", "bursts",
        "--n", params["n"],
        "--interval-min", params["interval_min"],
        "--interval-max", params["interval_max"],
        "--seed", record["seed"],
        "-o", replay,
    ])
    assert code == 0
    assert out.read_text() == replay.read_text()


def test_every_csv_has_params_then_header(tmp_path):
    jobs = [
        (["relation", "--ticks", 8], "rel.csv"),
        (["pid", "--steps", 20], "pid.csv"),
        (["avalanche", "gen", "--n", 20], "av.csv"),
        (["avalanche", "threshold", "--n", 50], "th.csv"),
        (["lur", "run", "--phases", "0:5,90:5,0:5"], "lur.csv"),
        (["vehicle", "run", "--steps", 50], "veh.csv"),
        (["demo", "gd", "--iters", 4], "gd.csv"),
        (["demo", "q", "--episodes", 50], "q.csv"),
    ]
    for args, name in jobs:
        out = tmp_path / name
        assert run([*args, "--seed", 5, "-o", out]) == 0, name
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# params: "), name
        assert "seed=5" in lines[0], name
        assert "," in lines[1], name


def test_pid_csv_columns(tmp_path):
    out = tmp_path / "pid.csv"
    assert run(["pid", "--kp", 2.0, "--steps", 10, "--seed", 0, "-o", out]) == 0
    assert out.read_text().splitlines()[1] == "tick,x,u,e"


def test_variety_subcommand(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("r_state,s_state\nr1,s1\nr2,s2\nr3,s3\n", encoding="utf-8")
    out = tmp_path / "verdict.csv"
    assert run(["variety", "--pairs", pairs, "--seed", 0, "-o", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "class,variety_ratio,verdict,reason"
    assert lines[2].startswith("Isomorphic,1/1,Satisfied")


def test_diffuse_writes_pgms_and_stats(tmp_path):
    out = tmp_path / "noised.pgm"
    assert run(["diffuse", "--mode", "power", "--seed", 3, "-o", out]) == 0
    stages = sorted(tmp_path.glob("noised_[0-9].pgm"))
    assert len(stages) == 5
    for p in stages:
        assert p.read_bytes().startswith(b"P5")
    stats = tmp_path / "noised_stats.csv"
    assert stats.exists()
    record = json.loads((tmp_path / "noised.pgm.manifest.jsonl").read_text())
    assert len(record["outputs"]) == 6


def test_diffuse_deterministic(tmp_path):
    for d in ("a", "b"):
        sub = tmp_path / d
        sub.mkdir()
        assert run(["diffuse", "--mode", "uniform", "--seed", 8, "-o", sub / "n.pgm"]) == 0
    for name in ("n_0.pgm", "n_4.pgm"):
        assert digest(tmp_path / "a" / name) == digest(tmp_path / "b" / name)


def test_lur_manifest_carries_metrics(tmp_path):
    out = tmp_path / "lur.csv"
    assert run(["lur", "run", "--phases", "0:30,90:30,0:30", "--seed", 1, "-o", out]) == 0
    record = json.loads((tmp_path / "lur.csv.manifest.jsonl").read_text())
    assert "interference" in record["extra"]
    assert "savings" in record["extra"]


def test_demo_roles_jsonl(tmp_path):
    out = tmp_path / "gd.csv"
    assert run(["demo", "gd", "--iters", 3, "--seed", 0, "-o", out]) == 0
    roles = tmp_path / "gd_roles.jsonl"
    records = [json.loads(line) for line in roles.read_text().splitlines()]
    assert {r["component"] for r in records} == {
        "objective_landscape", "update_rule", "gradient_evaluation", "iterate", "target",
    }
    assert all(r["interpretive"] for r in records)


def test_config_file_defaults_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=123\ne=0.5\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    code = run(["--config", cfg, "avalanche", "gen", "--e", 1.0, "--seed", 4, "-o", out])
    assert code == 0
    params = out.read_text().splitlines()[0]
    # config supplied n, flag overrode e
    assert "n=123" in params
    assert "e=1.0" in params


def test_gd_divergence_exit_2(tmp_path):
    assert run(["demo", "gd", "--lr", 2.5, "--seed", 0, "-o", tmp_path / "x.csv"]) == 2


def test_nan_exponent_is_usage_error_and_writes_nothing(tmp_path):
    out = tmp_path / "nan.csv"
    assert run(["avalanche", "gen", "--e", "nan", "--seed", 7, "-o", out]) == 2
    assert list(tmp_path.iterdir()) == []


def test_nan_power_shape_is_usage_error_and_writes_nothing(tmp_path):
    out = tmp_path / "noised.pgm"
    code = run(["diffuse", "--mode", "power", "--levels", "nan", "--seed", 3, "-o", out])
    assert code == 2
    assert list(tmp_path.iterdir()) == []
