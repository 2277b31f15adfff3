"""The experiment scripts under ``scripts/`` run end to end at small sizes."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

AVALANCHE_FILES = ["series_e1.csv", "series_e05.csv", "pfb.csv", "nfb.csv", "bursts.csv",
                   "rank.csv", "threshold.csv", "smoothed.csv"]
DIFFUSION_FILES = [f"{mode}_{i}.pgm" for mode in ("uniform", "power") for i in range(5)]


def run_script(monkeypatch, name: str, *args) -> int:
    """``main()`` of ``scripts/<name>`` with ``args`` as its command line."""
    main = runpy.run_path(str(SCRIPTS / name))["main"]
    monkeypatch.setattr(sys, "argv", [name, *map(str, args)])
    return main()


@pytest.mark.parametrize("name, files", [("avalanche_suite.py", AVALANCHE_FILES),
                                         ("diffusion_panels.py", DIFFUSION_FILES)])
def test_script_writes_the_files_it_names(tmp_path, monkeypatch, capsys, name, files):
    assert run_script(monkeypatch, name, "--outdir", tmp_path) == 0
    for file in files:
        assert (tmp_path / file).stat().st_size > 0
    for line in capsys.readouterr().out.splitlines():
        assert line.startswith(f"wrote {tmp_path}/")


def test_lur_experiment_prints_one_row_per_seed(monkeypatch, capsys):
    assert run_script(monkeypatch, "lur_experiment.py", "--seeds", 2, "--trials", 5) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["seed", "interference", "savings"]
    assert [line.split()[0] for line in lines[1:3]] == ["0", "1"]
    assert lines[4].startswith("interference > 0 in ") and "/2 seeds" in lines[4]
    assert lines[5].startswith("savings < 0 in ") and "/2 seeds" in lines[5]


@pytest.mark.parametrize("args, reason", [
    (["--seeds", 0], "argument --seeds: must be a positive integer, got '0'"),
    (["--trials", 0], "argument --trials: must be a positive integer, got '0'"),
    (["--noise", "nan"], "argument --noise: must be a finite number, got 'nan'"),
    (["--noise=-0.02"], "noise must be finite and >= 0, got -0.02"),
    (["--trials", 400_000], "a schedule holds at most 1000000 trials, got 1200000"),
])
def test_lur_experiment_rejects_a_bad_argument_in_one_line(monkeypatch, capsys, args, reason):
    # --seeds 0 once ended in a StatisticsError traceback, the others in ValueError ones.
    with pytest.raises(SystemExit) as exit_:
        run_script(monkeypatch, "lur_experiment.py", "--seeds", 1, "--trials", 1, *args)
    assert exit_.value.code == 2
    assert capsys.readouterr().err == f"lur_experiment.py: error: {reason}\n"
