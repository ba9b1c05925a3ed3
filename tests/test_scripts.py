"""Smoke runs of the scripts, the studies at tiny grids: each exits 0 and prints its header."""
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exc.value.code


def test_run_american(monkeypatch, capsys, tmp_path):
    boundary = tmp_path / "boundary.csv"
    args = ["--grid-n", "100", "--grid-m", "50", "--epsilons", "1e-2",
            "--boundary", str(boundary)]
    assert run_script("run_american.py", args, monkeypatch) == 0
    out = capsys.readouterr().out
    assert "European V(0, 100) = " in out
    assert f"boundary written to {boundary}" in out
    assert boundary.read_text().startswith("tau,s_f\n")


def test_run_convergence(monkeypatch, capsys):
    assert run_script("run_convergence.py", ["--levels", "1"], monkeypatch) == 0
    out = capsys.readouterr().out
    assert "diffusion only, against the closed form:" in out
    assert "lognormal jumps, against the mixture series:" in out


def test_run_table1(monkeypatch, capsys):
    args = ["--grid-n", "100", "--grid-m", "50"]
    assert run_script("run_table1.py", args, monkeypatch) == 0
    out = capsys.readouterr().out
    assert "deviations from the reference table (computed - reference):" in out


def test_count_lines(monkeypatch, capsys):
    assert run_script("count_lines.py", [], monkeypatch) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["file", "code", "doc", "physical"]
    assert lines[-1].split()[0] == "src"
    rows = [[int(n) for n in line.split()[1:]] for line in lines[1:]]
    # the src row adds up the files'
    assert [sum(col) for col in zip(*rows[:-1])] == rows[-1]
    assert any(line.startswith("levypide/jobs.py ") for line in lines)
