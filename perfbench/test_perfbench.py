"""Tests of the benchmark itself: run with `python -m pytest perfbench`.

The table1_fine test solves four 3200 x 1600 problems twice and takes about
ten seconds on two cores.
"""
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from levypide import cli  # noqa: E402
from workloads import Table1Fine  # noqa: E402


def table1_bytes(tmp_path: Path, name: str, grid: tuple[str, str]) -> bytes:
    out = tmp_path / name
    argv = ["table1", "--grid-n", grid[0], "--grid-m", grid[1], "--output", str(out)]
    assert cli.main(argv) == 0
    return out.read_bytes()


def test_table1_fine_csv_is_identical_for_one_and_two_workers(tmp_path, monkeypatch):
    monkeypatch.setenv("LEVYPIDE_WORKERS", "1")
    one = table1_bytes(tmp_path, "w1.csv", Table1Fine.grid)
    monkeypatch.setenv("LEVYPIDE_WORKERS", "2")
    two = table1_bytes(tmp_path, "w2.csv", Table1Fine.grid)
    assert one == two


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "cli.main", 0.0, 10.0, None, 1, (0, 0)),
        # two pool threads whose jobs overlap in [3, 4]
        (2, "pide.solve", 1.0, 4.0, 1, 1, (0, 0)),
        (3, "pide.solve", 3.0, 6.0, 1, 1, (0, 0)),
        (4, "pide.step", 1.5, 2.0, 2, 1, (0, 0)),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0)
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[4] == pytest.approx(0.5)


def test_traced_call_gives_the_same_output_and_links_pool_spans(tmp_path, monkeypatch):
    monkeypatch.setenv("LEVYPIDE_WORKERS", "2")
    monkeypatch.setattr(
        tracing, "BINDINGS", tracing.BINDINGS + (("levypide.pide", "no_such_name", "x"),)
    )
    plain = table1_bytes(tmp_path, "plain.csv", ("400", "200"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = table1_bytes(tmp_path, "traced.csv", ("400", "200"))
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.absent == ["levypide.pide.no_such_name"]
    assert cli.main is not None and not hasattr(cli.main, "__wrapped__")

    spans = tracer.drain()
    main_ids = {s[0] for s in spans if s[1] == "cli.main"}
    solves = [s for s in spans if s[1] == "pide.solve"]
    assert len(main_ids) == 1 and len(solves) == 4
    assert all(s[4] in main_ids for s in solves)
    figures = tracing.layer_figures(spans, workers=2)
    assert figures["pide.jump_apply_calls"] == 4 * 200
    assert figures["pide.tridiag_calls"] == 4 * 200
    assert figures["levy.checks_calls"] == 4
    assert 0.0 < figures["cli.pool_busy_share"] <= 1.0
