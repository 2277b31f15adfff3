"""Front end: exit codes, output format, determinism, manifests."""

import argparse
import errno
import hashlib
import importlib
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from regulab import cli
from regulab.cli import (MAX_GD_ITERS, MAX_PID_STEPS, MAX_SERIES, MAX_TICKS, MAX_VEHICLE_STEPS,
                         _COMMANDS, build_parser, dispatch, finite_float, positive_int, seed)

from child import run_regulab


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


def write_config(tmp_path: Path, text: str) -> Path:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    return cfg


def test_config_equals_form_is_honoured(tmp_path):
    cfg = write_config(tmp_path, "n=50\n")
    out = tmp_path / "out.csv"
    assert run([f"--config={cfg}", "avalanche", "gen", "--seed", 4, "-o", out]) == 0
    assert len(out.read_text().splitlines()) == 2 + 50


def test_config_with_a_byte_order_mark_reads_as_without(tmp_path):
    # Editors that save "UTF-8 with BOM" once made the first key '\ufeffn'.
    outs = []
    for name, encoding in [("plain", "utf-8"), ("bom", "utf-8-sig")]:
        (tmp_path / name).mkdir()
        cfg = tmp_path / name / "run.cfg"
        cfg.write_text("n=5\ne=0.5\n", encoding=encoding)
        outs.append(tmp_path / name / "out.csv")
        assert run(["--config", cfg, "avalanche", "gen", "--seed", 4, "-o", outs[-1]]) == 0
    assert (tmp_path / "bom" / "run.cfg").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_pairs_with_a_byte_order_mark_read_as_without(tmp_path, monkeypatch):
    # The BOM once stuck to the header's first name: got ['\ufeffr_state', 's_state'].
    outs = []
    for name, encoding in [("plain", "utf-8"), ("bom", "utf-8-sig")]:
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)  # relative paths: the params line names --pairs
        Path("pairs.csv").write_text("r_state,s_state\nr1,s1\nr2,s1\n", encoding=encoding)
        assert run(["variety", "--pairs", "pairs.csv", "--seed", 0, "-o", "verdict.csv"]) == 0
        outs.append(tmp_path / name / "verdict.csv")
    assert (tmp_path / "bom" / "pairs.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("argv", [["--config"], ["avalanche", "gen", "--seed", 4, "--config"]])
def test_config_without_path_is_one_line_usage_error(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("regulab: usage error: ")


def test_config_supplies_seed(tmp_path):
    cfg = write_config(tmp_path, "seed=5\n")
    out = tmp_path / "out.csv"
    assert run(["--config", cfg, "avalanche", "gen", "--n", 10, "-o", out]) == 0
    assert out.read_text().splitlines()[0] == "# params: e=1.0 n=10 seed=5"
    assert json.loads((tmp_path / "out.csv.manifest.jsonl").read_text())["seed"] == 5


def test_config_supplies_pairs(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("r_state,s_state\nr1,s1\nr2,s2\n", encoding="utf-8")
    cfg = write_config(tmp_path, f"pairs={pairs}\n")
    out = tmp_path / "verdict.csv"
    assert run(["--config", cfg, "variety", "--seed", 0, "-o", out]) == 0
    assert out.read_text().splitlines()[2].startswith("Isomorphic,1/1,Satisfied")


@pytest.mark.parametrize("argv, missing", [
    (["avalanche", "gen", "-o", "x.csv"], "--seed"),
    (["avalanche", "gen", "--seed", "1"], "--output"),
    (["variety", "--seed", "1", "-o", "x.csv"], "--pairs"),
    (["variety"], "--seed, --output, --pairs"),
])
def test_missing_required_flag_is_one_line_usage_error(tmp_path, monkeypatch, capsys, argv,
                                                       missing):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == f"regulab: usage error: the following arguments are required: {missing}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line, words", [
    pytest.param("bogus=1", ["avalanche", "gen"], id="bogus=1"),  # unknown
    pytest.param("kp=2.0", ["avalanche", "gen"], id="kp=2.0"),  # belongs to pid
    pytest.param("k=2", ["pid"], id="k=2"),  # pid's kp, abbreviated
])
def test_config_key_the_subcommand_lacks_is_usage_error(tmp_path, capsys, line, words):
    cfg = write_config(tmp_path, line + "\n")
    out = tmp_path / "out.csv"
    assert run(["--config", cfg, *words, "--seed", 4, "-o", out]) == 2
    assert capsys.readouterr().err == f"regulab: usage error: unrecognized arguments: --{line}\n"
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_abbreviated_flag_is_usage_error(tmp_path, capsys):
    # argparse reads a unique prefix as its flag: "--see" once set the seed.
    assert run(["pid", "--see", 3, "-o", tmp_path / "out.csv"]) == 2
    assert capsys.readouterr().err == "regulab: usage error: unrecognized arguments: --see 3\n"
    assert list(tmp_path.iterdir()) == []


def test_config_run_leaves_defaults_for_the_next_run(tmp_path):
    cfg = write_config(tmp_path, "n=50\ne=0.5\n")
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert run(["--config", cfg, "avalanche", "gen", "--seed", 4, "-o", first]) == 0
    assert run(["avalanche", "gen", "--seed", 4, "-o", second]) == 0
    lines = second.read_text().splitlines()
    assert lines[0] == "# params: e=1.0 n=10000 seed=4"
    assert len(lines) == 2 + 10_000


def leaf_parsers(parser, words=()):
    """(subcommand words, parser) of every leaf subcommand under ``parser``."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield words, parser
    for action in subparsers:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, (*words, name))


def readme_commands() -> list[list[str]]:
    """The argv of every command in the README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("regulab ")]


def test_readme_commands_parse_and_cover_every_leaf_subcommand():
    parser = build_parser()
    commands = readme_commands()
    for argv in commands:
        parser.parse_args(argv)  # a flag or value the parser rejects raises UsageError
    for words, _ in leaf_parsers(parser):
        assert any(argv[:len(words)] == list(words) for argv in commands), words


FLOAT_FLAGS = [
    (words, action.option_strings[0])
    for words, leaf in leaf_parsers(build_parser())
    for action in leaf._actions
    if action.type in (float, finite_float)
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-nan"])
@pytest.mark.parametrize("words, flag", FLOAT_FLAGS,
                         ids=[" ".join((*w, f)) for w, f in FLOAT_FLAGS])
def test_nonfinite_float_flag_is_usage_error_and_writes_nothing(tmp_path, capsys, words, flag,
                                                                value):
    for spelling in ([f"{flag}={value}"], [flag, value]):
        assert run([*words, *spelling, "--seed", 0, "-o", tmp_path / "out.csv"]) == 2
        assert capsys.readouterr().err == (
            f"regulab: usage error: argument {flag}: must be a finite number, got {value!r}\n")
        assert list(tmp_path.iterdir()) == []


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FLOAT_FLAGS), st.sampled_from([math.nan, math.inf, -math.inf]),
       st.sampled_from([str, str.upper, str.title]))
def test_any_nonfinite_float_flag_spelling_is_usage_error(flag, value, spell):
    words, option = flag
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        assert run([*words, f"{option}={spell(repr(value))}", "--seed", 0, "-o", out]) == 2
        assert list(Path(tmp).iterdir()) == []


# (words, flag, bound) of every count flag in the command table: its kind is
# the int bound, or positive_int for a count with no bound of its own.
COUNTS = [(words, f"--{name}", None if kind is positive_int else kind)
          for words, (handler, _, flags) in _COMMANDS.items() if not isinstance(handler, str)
          for name, kind, *_ in flags if kind is positive_int or type(kind) is int]
COUNT_FLAGS = [(words, flag) for words, flag, _ in COUNTS]
BOUNDED = [count for count in COUNTS if count[2] is not None]


def test_every_int_flag_but_seed_is_a_count():
    kinds = {(words, action.option_strings[0]): action.type
             for words, leaf in leaf_parsers(build_parser()) for action in leaf._actions}
    assert int not in kinds.values()  # no flag takes an unchecked integer
    assert {flag for (_, flag), kind in kinds.items() if kind is seed} == {"--seed"}
    counts = {key for key, kind in kinds.items()
              if kind is positive_int or getattr(kind, "__name__", None) == "count"}
    assert counts == set(COUNT_FLAGS)
    series = ("gen", "pfb", "nfb", "rank", "smooth", "bursts", "threshold")
    assert {(words, flag): bound for words, flag, bound in BOUNDED} == {
        (("relation",), "--ticks"): MAX_TICKS, (("pid",), "--steps"): MAX_PID_STEPS,
        **{(("avalanche", action), "--n"): MAX_SERIES for action in series},
        (("avalanche", "smooth"), "--factor"): MAX_SERIES,
        (("vehicle", "run"), "--steps"): MAX_VEHICLE_STEPS,
        (("demo", "gd"), "--iters"): MAX_GD_ITERS}
    assert (("demo", "q"), "--episodes") in COUNT_FLAGS


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("words, flag", COUNT_FLAGS,
                         ids=[" ".join((*w, f)) for w, f in COUNT_FLAGS])
def test_nonpositive_count_flag_is_usage_error_and_writes_nothing(tmp_path, words, flag, value):
    assert run([*words, f"{flag}={value}", "--seed", 0, "-o", tmp_path / "out.csv"]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["-1", "18446744073709551616", "-18446744073709551615"])
def test_seed_outside_64_bits_is_one_line_usage_error(tmp_path, capsys, value):
    # Masked to 64 bits, -1 and 2**64 - 1 once wrote the same bytes.
    (tmp_path / "c.cfg").write_text(f"seed={value}\n")
    words = ["pid", "--steps", 5, "-o", tmp_path / "p.csv"]
    for argv in ([*words, f"--seed={value}"], [*words, "--seed", value],
                 ["--config", tmp_path / "c.cfg", *words]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("regulab: usage error: argument --seed: ") and "2**64" in err
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "c.cfg"]


def test_largest_seed_is_accepted(tmp_path):
    out = tmp_path / "p.csv"
    assert run(["pid", "--steps", 5, "--seed", 2**64 - 1, "-o", out]) == 0
    assert json.loads(out.with_suffix(".csv.manifest.jsonl").read_text())["seed"] == 2**64 - 1


NEGATIVE_VALUES = [
    (["pid", "--disturbance", "-5e-1"], "disturbance=-0.5"),
    (["pid", "--setpoint", "-.5e1"], "setpoint=-5.0"),
    (["demo", "gd", "--x0", "-1e-3"], "x0=-0.001;0.0"),
    (["demo", "gd", "--ty", "-2"], "target=1.0;-2.0"),
    (["lur", "run", "--phases", "-30:20"], "phases=-30:20"),
]


@pytest.mark.parametrize("spell", ["space", "equals"])
@pytest.mark.parametrize("argv, shown", NEGATIVE_VALUES, ids=[" ".join(a) for a, _ in NEGATIVE_VALUES])
def test_negative_value_may_follow_its_flag_after_a_space(tmp_path, argv, shown, spell):
    # argparse's own pattern once read "-5e-1" and "-30:20" after a space as
    # option names: "expected one argument", exit 2.
    *words, flag, value = argv
    out = tmp_path / "x.csv"
    given = [flag, value] if spell == "space" else [f"{flag}={value}"]
    assert run([*words, *given, "--seed", 0, "-o", out]) == 0
    assert shown in out.read_text().splitlines()[0].split()


def test_config_switch_true_sets_the_flag(tmp_path):
    cfg = write_config(tmp_path, "cumulative=true\n")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    from_file, explicit = tmp_path / "a" / "n.pgm", tmp_path / "b" / "n.pgm"
    assert run(["--config", cfg, "diffuse", "--seed", 6, "-o", from_file]) == 0
    assert run(["diffuse", "--cumulative", "--seed", 6, "-o", explicit]) == 0
    for name in ("n_stats.csv", "n_4.pgm"):
        assert digest(tmp_path / "a" / name) == digest(tmp_path / "b" / name)


def test_config_switch_false_leaves_the_flag_off(tmp_path):
    cfg = write_config(tmp_path, "ascending=false\nn=50\n")
    from_file, plain = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["--config", cfg, "avalanche", "rank", "--seed", 3, "-o", from_file]) == 0
    assert run(["avalanche", "rank", "--n", 50, "--seed", 3, "-o", plain]) == 0
    assert from_file.read_text() == plain.read_text()


@pytest.mark.parametrize("value", ["yes", "1", "True", ""])
def test_config_switch_other_value_is_usage_error(tmp_path, capsys, value):
    cfg = write_config(tmp_path, f"cumulative={value}\n")
    assert run(["--config", cfg, "diffuse", "--seed", 6, "-o", tmp_path / "n.pgm"]) == 2
    assert "true or false" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_pid_negative_ti_is_usage_error(tmp_path):
    assert run(["pid", "--ti", -3, "--seed", 0, "-o", tmp_path / "pid.csv"]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content, reason", [
    (b"P2\n2 1\n255\n300 4\n", "pixel value 300 is outside 0..255"),
    (b"P2\n2 1\n255\n-1 4\n", "pixel value -1 is outside 0..255"),
    (b"P5\n2 1\n100\n\x00\xc8", "pixel value 200 is outside 0..100"),
    (b"P2\n0 2\n255\n", "at least 1x1, got 0x2"),
    (b"P5\n2 -1\n255\n\x00", "at least 1x1, got 2x-1"),
    (b"P5\n2 2\n255\n\x00\x01", "expected 4 pixels, found 2"),
    (b"P5\n2 2\n255", "expected 4 pixels, found 0"),
])
def test_bad_pgm_input_is_one_line_usage_error(tmp_path, capsys, content, reason):
    pgm = tmp_path / "in.pgm"
    pgm.write_bytes(content)
    assert run(["diffuse", "--input", pgm, "--seed", 0, "-o", tmp_path / "o.pgm"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and reason in err
    assert list(tmp_path.iterdir()) == [pgm]


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("phases, interference", [("0:20", False), ("0:10,90:10", True)])
def test_lur_manifest_is_strict_json_with_too_few_phases(tmp_path, phases, interference):
    out = tmp_path / "lur.csv"
    assert run(["lur", "run", "--phases", phases, "--seed", 1, "-o", out]) == 0
    text = (tmp_path / "lur.csv.manifest.jsonl").read_text()
    extra = json.loads(text, parse_constant=reject_constant)["extra"]
    assert (extra["interference"] is not None) == interference
    assert extra["savings"] is None
    assert extra["null_reason"] == "interference needs >= 2 phases, savings needs >= 3"


@pytest.mark.parametrize("argv", [
    ["lur", "run", "--gain", "1e300", "--seed", "1"],
    ["vehicle", "run", "--dt", "1e300", "--steps", "3", "--seed", "1"],
    ["demo", "gd", "--tx", "1e308", "--x0=-1e308", "--lr", "0.5", "--iters", "2", "--seed", "0"],
    # Finite gradients whose length, the error column, overflows.
    ["demo", "gd", "--tx", "1.5e308", "--ty=-1.5e308", "--iters", "2", "--seed", "0"],
    ["pid", "--kp", "1e300", "--setpoint", "1e10", "--steps", "1", "--seed", "0"],
])
def test_overflowing_run_is_one_stderr_line(tmp_path, argv):
    # A fresh interpreter, so that numpy's warnings reach stderr as they
    # would for a user.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "regulab.cli", *argv, "-o", "out.csv"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("regulab: runtime error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, reason", [
    (["relation", "--ticks", "100000000000000000000"], "in [1, 1000000], got"),
    (["avalanche", "gen", "--n", "100000000000000000000"], "in [1, 10000000], got"),
    (["avalanche", "bursts", "--n", "100000000000000000000"], "in [1, 10000000], got"),
    (["pid", "--steps", "100000000000000000000"], "in [1, 10000000], got"),
])
def test_count_too_large_to_index_is_one_line_usage_error(tmp_path, capsys, argv, reason):
    assert run([*argv, "--seed", 0, "-o", tmp_path / "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("regulab: usage error: ") and reason in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, headroom_mib, reason", [
    (["avalanche", "gen", "--n", "10000000"], 64, "Unable to allocate 76.3 MiB for an array with "
     "shape (10000000,) and data type float64"),
    # Rows piling up raise a MemoryError with no text, partway through the
    # run. Its traceback once kept them alive, so the message could not be
    # printed either: 15 lines with two tracebacks. With 64 MiB the ticks
    # finish, and numpy cannot allocate the output column's array.
    (["relation", "--ticks", "1000000"], 32, "out of memory"),
    (["relation", "--ticks", "1000000"], 64, "Unable to allocate 7.63 MiB for an array with "
     "shape (1000000,) and data type float64"),
    (["relation", "--ticks", "1000000"], 96, "out of memory"),
])
def test_run_out_of_memory_is_one_line_runtime_error(tmp_path, argv, headroom_mib, reason):
    code, err, _ = run_regulab([*argv, "--seed", "0", "-o", "x.csv"], tmp_path,
                               headroom=headroom_mib << 20)
    assert code == 1, err
    assert err.splitlines() == [f"regulab: runtime error: {reason}"]
    assert list(tmp_path.iterdir()) == []


# A numpy whose import raises numpy's own kind of text: many lines, the
# cause last.
STAND_IN_NUMPY = '''raise ImportError("""

IMPORTANT: PLEASE READ THIS FOR ADVICE ON HOW TO SOLVE THIS ISSUE!

Importing the numpy C-extensions failed.

Original error was: libstand_in.so: cannot open shared object file
""")
'''


@pytest.mark.parametrize("argv", [
    ["pid"],  # fails importing its family
    ["variety", "--pairs", "../pairs.csv"],  # fails in the CSV writer, its temp file open
])
@pytest.mark.parametrize("numpy_, reason", [
    ("none", "import of numpy halted; None in sys.modules"),
    ("stand-in", "Original error was: libstand_in.so: cannot open shared object file"),
])
def test_numpy_that_cannot_load_is_one_line_runtime_error(tmp_path, argv, numpy_, reason):
    (tmp_path / "pairs.csv").write_text("r_state,s_state\na,x\n")
    (tmp_path / "stand-in" / "numpy").mkdir(parents=True)
    (tmp_path / "stand-in" / "numpy" / "__init__.py").write_text(STAND_IN_NUMPY)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, str(tmp_path / "stand-in")] if numpy_ == "stand-in" else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    block = "sys.modules['numpy'] = None; " if numpy_ == "none" else ""
    code = f"import sys; {block}from regulab.cli import main; main()"
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--seed", "0", "-o", "x.csv"],
                          cwd=run_dir, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [f"regulab: runtime error: numpy failed to import: {reason}"]
    assert list(run_dir.iterdir()) == []


def test_gap_range_wider_than_two_to_the_64_is_usage_error(tmp_path):
    # Such a bound once made every draw a rejection, and the run never ended.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    argv = ["avalanche", "bursts", "--n", "10", "--interval-max", "99999999999999999999999",
            "--seed", "0", "-o", "i.csv"]
    proc = subprocess.run([sys.executable, "-m", "regulab.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert "2**64" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_lur_schedule_over_the_trial_budget_is_usage_error_at_once(tmp_path):
    # Such a schedule once ran with no output until it was killed.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    argv = ["lur", "run", "--phases", "0:1000000000000000000000", "--seed", "0", "-o", "l.csv"]
    proc = subprocess.run([sys.executable, "-m", "regulab.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr == ("regulab: invalid parameters: a schedule holds at most 1000000 "
                           "trials, got 1000000000000000000000\n")
    assert list(tmp_path.iterdir()) == []


def test_nonfinite_phase_angle_is_usage_error_before_any_trial(tmp_path, capsys, monkeypatch):
    # A nan angle was once found only when its phase began, after every
    # earlier reach had run: minutes for this schedule.
    from regulab import procedural

    def no_reach(*args, **kwargs):
        raise AssertionError("a reach ran before the schedule was checked")

    monkeypatch.setattr(procedural, "run_trial", no_reach)
    started = time.perf_counter()
    code = run(["lur", "run", "--phases", "0:999999,nan:1", "--seed", 0, "-o", tmp_path / "l.csv"])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert capsys.readouterr().err == "regulab: invalid parameters: angle must be finite, got nan\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid", ["3", "3x", "x3", "3x3x3", "", "threexthree"])
def test_malformed_grid_is_one_line_usage_error(tmp_path, capsys, grid):
    assert run(["demo", "q", "--grid", grid, "--seed", 0, "-o", tmp_path / "q.csv"]) == 2
    err = capsys.readouterr().err
    assert err == f"regulab: usage error: grid must be WIDTHxHEIGHT, got {grid!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, reason", [
    (["lur", "run", "--phases", "0:5,90"], "phase must be ANGLE:TRIALS, got '90'"),
    (["lur", "run", "--phases", "0:5:7"], "phase must be ANGLE:TRIALS, got '0:5:7'"),
    (["lur", "run", "--phases", "0:5,east:5"], "phase must be ANGLE:TRIALS, got 'east:5'"),
    (["lur", "run", "--phases", "0:2.5"], "phase must be ANGLE:TRIALS, got '0:2.5'"),
    (["diffuse", "--levels", "0.5,"], "levels must be a comma list of numbers, got '0.5,'"),
    (["diffuse", "--levels", "0.5;0.6"],
     "levels must be a comma list of numbers, got '0.5;0.6'"),
])
def test_malformed_list_flag_says_what_it_expects(tmp_path, capsys, argv, reason):
    # These once printed Python's own parse errors, such as "invalid literal
    # for int() with base 10: ''".
    assert run([*argv, "--seed", 0, "-o", tmp_path / "x.csv"]) == 2
    assert capsys.readouterr().err == f"regulab: usage error: {reason}\n"
    assert list(tmp_path.iterdir()) == []


def test_negative_lur_noise_is_usage_error(tmp_path, capsys):
    # Such a noise was once dropped: the rows matched --noise=0, while the
    # params line recorded the negative value.
    argv = ["lur", "run", "--phases", "0:50", "--noise=-0.02", "--seed", 3]
    assert run([*argv, "-o", tmp_path / "l.csv"]) == 2
    assert capsys.readouterr().err == ("regulab: invalid parameters: noise must be finite and "
                                       ">= 0, got -0.02\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["-1e-06", "-1.0"])
def test_negative_lur_slow_rate_is_usage_error_before_any_trial(tmp_path, capsys, monkeypatch,
                                                                value):
    # -1e-6 once ran and wrote a CSV; -1 ran every trial, then exited 1.
    from regulab import procedural
    monkeypatch.setattr(procedural, "run_lur", lambda *a, **k: pytest.fail("a trial ran"))
    argv = ["lur", "run", "--phases", "0:50", f"--slow-rate={value}", "--seed", 3]
    assert run([*argv, "-o", tmp_path / "l.csv"]) == 2
    assert capsys.readouterr().err == ("regulab: invalid parameters: slow rate must be finite and "
                                       f">= 0, got {value}\n")
    assert list(tmp_path.iterdir()) == []


def test_negative_vehicle_goal_radius_is_usage_error_before_any_step(tmp_path, capsys,
                                                                     monkeypatch):
    # It once ran every step, never parking, and exited 0.
    from regulab import procedural
    monkeypatch.setattr(procedural, "vehicle_step", lambda *a: pytest.fail("a step ran"))
    argv = ["vehicle", "run", "--steps", 20, "--goal-radius=-1", "--seed", 4]
    assert run([*argv, "-o", tmp_path / "v.csv"]) == 2
    assert capsys.readouterr().err == ("regulab: invalid parameters: goal radius must be >= 0, "
                                       "got -1.0\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, reason", [
    ("levels", "levels must be a comma list of numbers, got ''"),
    ("input", "argument --input: must be a file path, got ''")])
@pytest.mark.parametrize("in_config", [False, True])
def test_empty_diffuse_input_or_levels_is_usage_error(tmp_path, capsys, flag, reason, in_config):
    # Both once ran the default ladder on the built-in image and exited 0.
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(f"{flag}=\n")
    argv = ["--config", config, "diffuse"] if in_config else ["diffuse", f"--{flag}="]
    assert run([*argv, "--seed", 1, "-o", out / "a.pgm"]) == 2
    assert capsys.readouterr().err == f"regulab: usage error: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("dt, code, err", [
    # The first step: dt * turn gain overflows, and inf times the sensors' zero
    # difference is a nan heading, while the body is clamped onto a corner.
    ("1e10", 1, "regulab: runtime error: vehicle step diverged: the heading is not finite\n"),
    ("1e300", 1, "regulab: runtime error: vehicle step diverged: a point is too far from the "
     "arena to clamp (its squared distance overflows)\n"),
])
def test_vehicle_overflow_exits_with_one_line_and_no_file(tmp_path, capsys, dt, code, err):
    argv = ["vehicle", "run", "--steps", 5, "--dt", dt, "--turn-gain", "1e300", "--seed", 0]
    assert run([*argv, "-o", tmp_path / "v.csv"]) == code
    assert capsys.readouterr().err == err
    assert list(tmp_path.iterdir()) == []


def test_vehicle_run_over_the_step_budget_is_usage_error_before_any_step(tmp_path, capsys,
                                                                          monkeypatch):
    # This run once went on past a 5 s timeout, its rows piling up in a list.
    from regulab import procedural

    def no_steps(*args, **kwargs):
        raise AssertionError("the vehicle stepped")

    monkeypatch.setattr(procedural, "vehicle_step", no_steps)
    started = time.perf_counter()
    code = run(["vehicle", "run", "--steps", 10**12, "--dt", 1e-9, "--seed", 0,
                "-o", tmp_path / "v.csv"])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert capsys.readouterr().err == ("regulab: usage error: argument --steps: must be an "
                                       f"integer in [1, {MAX_VEHICLE_STEPS}], got '{10**12}'\n")
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(AssertionError, match="the vehicle stepped"):  # the budget itself runs
        run(["vehicle", "run", "--steps", MAX_VEHICLE_STEPS, "--seed", 0,
             "-o", tmp_path / "v.csv"])


# The first call of each leaf that has a bounded count.
FIRST_CALLS = [("relation", "toggle_benchmark"), ("pid", "PidGains"),
               ("criticality", "BurstSchedule"), ("criticality", "gen_power_series"),
               ("criticality", "threshold_model"), ("procedural", "equilateral_field"),
               ("demos", "gd_regulate")]


@pytest.mark.parametrize("in_config", [False, True])
@pytest.mark.parametrize("words, flag, bound", BOUNDED,
                         ids=[" ".join((*w, f)) for w, f, _ in BOUNDED])
def test_count_over_its_bound_is_usage_error_before_the_run(tmp_path, monkeypatch, capsys, words,
                                                            flag, bound, in_config):
    # Unbounded, avalanche bursts --n 100000000 needed about 6.5 GB, and pid
    # --steps 1000000000 filled 24 B a step until memory ran out.
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    for module, name in FIRST_CALLS:
        monkeypatch.setattr(importlib.import_module(f"regulab.{module}"), name, no_run)
    if in_config:
        (tmp_path / "run.cfg").write_text(f"{flag[2:]}={bound + 1}\n")
        argv = ["--config", tmp_path / "run.cfg", *words]
    else:
        argv = [*words, flag, bound + 1]
    assert run([*argv, "--seed", 0, "-o", tmp_path / "out" / "x.csv"]) == 2
    assert capsys.readouterr().err == (f"regulab: usage error: argument {flag}: must be an "
                                       f"integer in [1, {bound}], got '{bound + 1}'\n")
    assert not (tmp_path / "out").exists()
    args = cli._parse([*words, flag, str(bound), "--seed", "0", "-o", "x.csv"])
    assert getattr(args, flag[2:]) == bound  # the bound itself is taken


def test_q_run_over_the_step_budget_is_usage_error_before_any_table(tmp_path, capsys,
                                                                      monkeypatch):
    # This run once went on past a 5 s timeout with no output.
    from regulab import demos

    def no_tables(*args, **kwargs):
        raise AssertionError("a Q table was built before the step budget was checked")

    monkeypatch.setattr(demos, "q_regulate", no_tables)
    started = time.perf_counter()
    code = run(["demo", "q", "--grid", "2x2", "--episodes", "1000000000000", "--seed", 0,
                "-o", tmp_path / "q.csv"])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"regulab: invalid parameters: a run takes at most {demos.MAX_Q_STEPS} "
                          "steps")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_grid_over_the_cell_budget_is_usage_error_before_any_table(tmp_path, capsys, monkeypatch):
    # 10**10 cells: the Q table of such a grid would exhaust memory.
    from regulab import demos

    def no_tables(*args, **kwargs):
        raise AssertionError("a Q table was built before the grid was checked")

    monkeypatch.setattr(demos, "q_regulate", no_tables)
    started = time.perf_counter()
    code = run(["demo", "q", "--grid", "100000x100000", "--seed", 0, "-o", tmp_path / "q.csv"])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("regulab: invalid parameters: a grid holds at most ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


FAMILIES = ("criticality", "demos", "diffusion", "pid", "procedural", "relation", "variety")

# From a fresh interpreter: each group's help, ``regulab <words> --help``,
# then the exit codes of the dispatches of ``argvs``, with the modules
# loaded after the helps and after the dispatches.
FRONT_END = """
import contextlib, io, json, sys
from regulab.cli import _COMMANDS, build_parser, dispatch
helps = {{}}
for path, (handler, *_) in _COMMANDS.items():
    if isinstance(handler, str):
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.suppress(SystemExit):
            build_parser().parse_args([*path, "--help"])
        helps[" ".join(path)] = out.getvalue()
after_helps = sorted(sys.modules)
codes = [dispatch(argv) for argv in {argvs!r}]
print(json.dumps([after_helps, helps, codes, sorted(sys.modules)]))
"""


def test_building_the_parser_loads_no_csv_writer(tmp_path):
    # Fresh interpreters: each command imports its own family, numpy and the
    # CSV writer when it runs, so parsing, every help and every usage error
    # load none of them, and a run loads no other family.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}

    def fresh(code: str) -> str:
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    config = write_config(tmp_path, "steps 10\n")  # not key=value
    out = str(tmp_path / "p.csv")
    argvs = [["pid", "--seed", "0"], ["--config", str(config), "pid", "--seed", "0", "-o", out],
             ["pid", "--seed", "-1", "-o", out],
             ["demo", "q", "--grid", "bad", "--seed", "0", "-o", out],
             ["lur", "run", "--phases", "bad", "--seed", "0", "-o", out],
             ["diffuse", "--levels", "a,b", "--seed", "0", "-o", out]]
    modules, helps, codes, after = json.loads(fresh(FRONT_END.format(argvs=argvs)))
    assert codes == [2] * 6
    for loaded in (modules, after):
        assert [m for m in loaded if m.split(".")[0] == "regulab"] == ["regulab", "regulab.cli"]
        assert "numpy" not in loaded
    assert list(tmp_path.iterdir()) == [config]
    for group, help_text in helps.items():
        words = tuple(group.split())
        names = [path[-1] for path in _COMMANDS if path and path[:-1] == words]
        assert "{" + ",".join(names) + "}" in help_text, group
    assert {path[:-1] for path in _COMMANDS if path} == {tuple(g.split()) for g in helps}

    argv = ["pid", "--steps", "10", "--seed", "0", "-o", str(tmp_path / "p.csv")]
    loaded = fresh(f"import sys; from regulab.cli import dispatch; assert dispatch({argv!r}) == 0; "
                   "print(*sys.modules)").split()
    assert {f for f in FAMILIES if f"regulab.{f}" in loaded} == {"pid"}


@pytest.mark.parametrize("flag, argv", [
    ("output", ["pid", "--seed", "0"]),
    ("pairs", ["variety", "--seed", "0", "-o", "v.csv"]),
])
@pytest.mark.parametrize("in_config", [False, True])
def test_empty_path_flag_is_usage_error_and_writes_nothing(tmp_path, monkeypatch, capsys, flag,
                                                           argv, in_config):
    # An empty --pairs once read '' and an empty --output renamed over '.':
    # runtime errors (exit 1), not usage errors.
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, f"{flag}=\n")
    argv = ["--config", config.name, *argv] if in_config else [*argv, f"--{flag}="]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("regulab: usage error: ") and err.count("\n") == 1
    assert "must be a file path, got ''" in err
    assert list(tmp_path.iterdir()) == [config]


def test_empty_config_path_is_usage_error_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # It once read '.' and exited 1 with "Is a directory".
    monkeypatch.chdir(tmp_path)
    assert run(["--config=", "pid", "--seed", 0, "-o", "p.csv"]) == 2
    assert capsys.readouterr().err == ("regulab: usage error: argument --config: must be a file "
                                       "path, got ''\n")
    assert list(tmp_path.iterdir()) == []


def write_noise_pgm(path: Path, width: int, height: int) -> Path:
    pixels = bytes((i * 7919) % 256 for i in range(width * height))
    path.write_bytes(f"P5\n{width} {height}\n255\n".encode("ascii") + pixels)
    return path


def test_diffuse_memory_does_not_grow_with_the_level_count(tmp_path):
    # Every level was once held until the last was made: 2 MiB a level at 512x512.
    image = write_noise_pgm(tmp_path / "in.pgm", 512, 512)
    peak = {}
    for levels in (5, 40):
        argv = ["diffuse", "--input", image, "--levels", ",".join(["0.5"] * levels),
                "--seed", 1, "-o", tmp_path / f"l{levels}" / "n.pgm"]
        code, err, peak[levels] = run_regulab(argv, tmp_path)
        assert code == 0, err
        assert len(list((tmp_path / f"l{levels}").glob("n_*.pgm"))) == levels
    assert peak[40] - peak[5] <= 4 * 1024, peak


def test_vehicle_memory_does_not_grow_with_the_step_count(tmp_path):
    # Rows were once Python tuples: about 450 B a step.
    peak = {}
    for steps in (1000, 50_000):
        argv = ["vehicle", "run", "--goal-radius", 0, "--dt", 1e-9, "--steps", steps,
                "--seed", 0, "-o", f"v{steps}.csv"]
        code, err, peak[steps] = run_regulab(argv, tmp_path)
        assert code == 0, err
        assert len((tmp_path / f"v{steps}.csv").read_text().splitlines()) == 2 + steps
    assert peak[50_000] - peak[1000] <= 8 * 1024, peak


def bytes_a_value(tmp_path, *argv):
    """Growth of the peak resident set of ``regulab avalanche *argv --n n``
    from n = 10**5 to 10**6, in bytes a value."""
    peak = {}
    for n in (10**5, 10**6):
        code, err, peak[n] = run_regulab(["avalanche", *argv, "--n", n, "--seed", 0,
                                          "-o", f"{n}.csv"], tmp_path)
        assert code == 0, err
    return (peak[10**6] - peak[10**5]) * 1024 / (10**6 - 10**5)


@pytest.mark.parametrize("gaps, limit", [(["--interval-min", 1, "--interval-max", 1], 44),
                                         ([], 48)])
def test_bursts_memory_grows_by_few_bytes_a_value(tmp_path, gaps, limit):
    # Each burst was once summed over Python lists of every value: about
    # 143 B a value with a release every tick, and 70 B at the default gaps.
    # Release ticks turned back into gaps once took 65 B a value at gaps 1..1,
    # and an events object checking its times with np.diff 48 B.
    assert bytes_a_value(tmp_path, "bursts", *gaps) <= limit


def test_threshold_memory_grows_by_few_bytes_a_value(tmp_path):
    # The curve was once powered into a second array: about 14 B a value.
    assert bytes_a_value(tmp_path, "threshold") <= 11


def test_relation_at_its_bound_holds_columns_not_rows(tmp_path):
    # Six columns of 8 MB each, held as the lists the ticks fill, then the
    # writer's text lists, over an import of about 30 MB. A tuple a tick
    # and the CSV joined into one string once peaked at 244 MB.
    argv = ["relation", "--ticks", MAX_TICKS, "--seed", 0, "-o", "r.csv"]
    code, err, peak = run_regulab(argv, tmp_path, timeout=120)
    assert code == 0, err
    assert peak <= 160 * 1024
    with (tmp_path / "r.csv").open("rb") as fh:
        assert sum(1 for _ in fh) == 2 + MAX_TICKS


def test_demo_gd_at_its_bound_holds_little_beyond_its_columns(tmp_path):
    # 24 MB of columns (the trajectory and the error) over an import of
    # about 30 MB. The error column once came from one list of every
    # iterate, with a peak of 229 MB.
    argv = ["demo", "gd", "--iters", MAX_GD_ITERS, "--seed", 0, "-o", "g.csv"]
    code, err, peak = run_regulab(argv, tmp_path, timeout=120)
    assert code == 0, err
    assert peak <= 60 * 1024
    with (tmp_path / "g.csv").open("rb") as fh:
        assert sum(1 for _ in fh) == 2 + MAX_GD_ITERS + 1


@pytest.mark.parametrize("name, error", [("blend", MemoryError()),
                                         ("pgm_bytes", OSError(28, "No space left on device"))])
def test_diffuse_failing_at_the_third_level_leaves_no_file(tmp_path, monkeypatch, capsys, name,
                                                            error):
    # Levels are written as they are made, so a failure after the first
    # two (at the parent, an encoding or write error) once left them on disk.
    from regulab import diffusion

    original, calls = getattr(diffusion, name), []

    def third_call_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise error
        return original(*args, **kwargs)

    monkeypatch.setattr(diffusion, name, third_call_fails)
    image = write_noise_pgm(tmp_path / "in.pgm", 16, 8)
    code = run(["diffuse", "--input", image, "--levels", "0.2,0.4,0.6,0.8", "--seed", 1,
                "-o", tmp_path / "n.pgm"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("regulab: runtime error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [image]


def no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


def fail_manifest_build(monkeypatch):
    monkeypatch.setattr(cli.json, "dumps", no_space)


def fail_manifest_write(monkeypatch):
    # Only the manifest's temp file cannot be made.
    open_ = os.open
    monkeypatch.setattr(os, "open", lambda path, *args: (
        no_space() if ".manifest.jsonl." in str(path) else open_(path, *args)))


@pytest.mark.parametrize("fail", [fail_manifest_build, fail_manifest_write],
                         ids=["build", "write"])
@pytest.mark.parametrize("argv", [["pid", "--steps", "10", "-o", "p.csv"],
                                  ["diffuse", "--levels", "0.5,0.25", "-o", "n.pgm"]],
                         ids=["pid", "diffuse"])
def test_failing_manifest_leaves_the_directory_as_it_was(tmp_path, monkeypatch, capsys, fail,
                                                         argv):
    # The outputs were once renamed before the manifest was made, so such a
    # failure left them, beside no manifest or the last run's.
    monkeypatch.chdir(tmp_path)

    def failing_run(seed):
        with monkeypatch.context() as patch:
            fail(patch)
            assert run([*argv, "--seed", seed]) == 1
        assert capsys.readouterr().err == ("regulab: runtime error: [Errno 28] No space left on "
                                           "device\n")

    failing_run(1)
    assert list(tmp_path.iterdir()) == []
    assert run([*argv, "--seed", 1]) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    failing_run(2)  # another seed: other bytes, were they written
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first


def test_failing_rename_leaves_no_manifest(tmp_path, monkeypatch, capsys):
    # The old manifest once stayed, describing files this run had not written.
    monkeypatch.chdir(tmp_path)
    argv = ["diffuse", "--levels", "0.5,0.25", "-o", "n.pgm"]
    assert run([*argv, "--seed", 1]) == 0
    replace, calls = os.replace, []

    def second_call_fails(*args):
        calls.append(None)
        return no_space() if len(calls) == 2 else replace(*args)

    monkeypatch.setattr(os, "replace", second_call_fails)
    assert run([*argv, "--seed", 2]) == 1
    assert capsys.readouterr().err.startswith("regulab: runtime error: ")
    names = [p.name for p in tmp_path.iterdir()]
    assert not [n for n in names if n.endswith((".manifest.jsonl", ".tmp"))], names


def test_directory_at_an_output_path_keeps_the_last_manifest(tmp_path, capsys):
    # The old manifest was once unlinked before the rename onto the directory failed.
    argv = ["avalanche", "gen", "--n", 10, "--seed", 1, "-o", tmp_path / "out.csv"]
    assert run(argv) == 0
    manifest = tmp_path / "out.csv.manifest.jsonl"
    before = manifest.read_bytes()
    (tmp_path / "out.csv").unlink()
    (tmp_path / "out.csv").mkdir()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("regulab: ") and "out.csv" in err
    assert ".tmp" not in err
    assert manifest.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.manifest.jsonl"]


def test_run_files_take_the_mode_open_gives(tmp_path):
    # mkstemp's 0o600 once reached every output and manifest.
    umask = os.umask(0o022)
    try:
        assert run(["diffuse", "--levels", "0.5,0.25", "--seed", 1, "-o", tmp_path / "n.pgm"]) == 0
        assert run(["demo", "gd", "--iters", 3, "--seed", 0, "-o", tmp_path / "gd.csv"]) == 0
    finally:
        os.umask(umask)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert sorted(modes) == ["gd.csv", "gd.csv.manifest.jsonl", "gd_roles.jsonl",
                             "n.pgm.manifest.jsonl", "n_0.pgm", "n_1.pgm", "n_stats.csv"]
    assert set(modes.values()) == {0o644}
