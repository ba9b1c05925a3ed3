"""Config parsing, the pricing/check/table presets, and their exit codes."""
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levypide
from levypide import cli, jobs
from conftest import (
    ALL_JUMP_MODELS,
    BENCH_CGMY,
    BENCH_KOU,
    BENCH_MERTON,
    BENCH_NIG,
    BENCH_VG,
    bench_spec,
)
from levypide.bs import bs_price
from levypide.cli import (
    ConfigError,
    RunConfig,
    _fmt9,
    emit_plotdata,
    main,
    model_from_dict,
    model_to_dict,
)
from levypide.levy import NoJumps, VarianceGamma
from levypide.pide import GridSpec, solve_european


OPTION = {"kind": "put", "strike": 100.0, "expiry": 1.0, "sigma": 0.23}
# A Merton model its constructor accepts whose shape witness cannot be built:
# mu = 1 / (2 delta^2) overflows to infinity.
NO_WITNESS = {"type": "merton", "lam": 0.1, "m": 0.0, "delta": 1e-160}
WITNESS_UNAVAILABLE = (
    "witness unavailable: envelope parameters must be finite, "
    "got (0.0, 0.0, 0.0, inf, 3.9894228040143273e+158)"
)


def run_module(*argv, flags=()):
    """`python <flags> -m levypide <argv>` in a subprocess that imports this
    tree's package."""
    src = str(Path(levypide.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "levypide", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "option": OPTION,
        "model": {"type": "none"},
        "grid": {"n_space": 100, "n_time": 50},
        "scenarios": [{"rate": 0.1, "spots": [90.0, 100.0, 110.0]}],
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# `levypide check` stdout at r = 0 and 0.1; the printed values come from each
# family's formulas and must not move.
CHECK_STDOUT = {
    "merton": """model: merton
witness: alpha=0 d_minus=-8.88889 d_plus=-8.88889 mu=22.2222 c0=0.10934 admissible=True
integrability: passed=True value=0.00625 (integral of min(z^2,1) nu(dz) = 0.00625)
structural r=0: passed=False value=0.000677231 (upward-jump budget 0.000677231 vs rate 0)
structural r=0.1: passed=True value=0.000677231 (upward-jump budget 0.000677231 vs rate 0.1)
""",
    "kou": """model: kou
witness: alpha=0 d_minus=-3 d_plus=2 mu=0 c0=0.15 admissible=True
integrability: passed=True value=0.0237482 (integral of min(z^2,1) nu(dz) = 0.0237482)
structural r=0: passed=False value=0.025 (upward-jump budget 0.025 vs rate 0)
structural r=0.1: passed=True value=0.025 (upward-jump budget 0.025 vs rate 0.1)
""",
    "vg": """model: vg
witness: alpha=1 d_minus=-22.4847 d_plus=6.22763 mu=0 c0=3.7037 admissible=True
integrability: passed=True value=0.102488 (integral of min(z^2,1) nu(dz) = 0.102488)
structural r=0: passed=False value=0.168496 (upward-jump budget 0.168496 vs rate 0)
structural r=0.1: passed=False value=0.168496 (upward-jump budget 0.168496 vs rate 0.1)
""",
    "nig": """model: nig
witness: alpha=2 d_minus=-6 d_plus=4 mu=0 c0=3.18126 admissible=True
integrability: passed=True value=0.132574 (integral of min(z^2,1) nu(dz) = 0.132574)
structural r=0: passed=False value=inf (divergent at the origin: (e^y - 1) ~ y against \
a |z|^-alpha singularity with alpha = 2 >= 2)
structural r=0.1: passed=False value=inf (divergent at the origin: (e^y - 1) ~ y against \
a |z|^-alpha singularity with alpha = 2 >= 2)
""",
    "cgmy": """model: cgmy
witness: alpha=1.5 d_minus=-8 d_plus=6 mu=0 c0=0.5 admissible=True
integrability: passed=True value=0.0496752 (integral of min(z^2,1) nu(dz) = 0.0496752)
structural r=0: passed=False value=0.323784 (upward-jump budget 0.323784 vs rate 0)
structural r=0.1: passed=False value=0.323784 (upward-jump budget 0.323784 vs rate 0.1)
""",
}


class TestFmt9:
    @pytest.mark.parametrize(
        "value, text",
        [
            (100.0, "100"),
            (0.0, "0"),
            (1e-7, "0.0000001"),
            (15.25464087912345, "15.2546409"),
            (85.2144, "85.2144"),
            (float("nan"), "nan"),
            (float("inf"), "inf"),
            (float("-inf"), "-inf"),
        ],
    )
    def test_formatting(self, value, text):
        assert _fmt9(value) == text

    def test_caps_significant_digits(self):
        assert len(_fmt9(math.pi).replace(".", "").lstrip("0")) <= 9


class TestModelSerialization:
    def test_null_and_aliases_give_no_jumps(self):
        assert model_from_dict(None) == NoJumps()
        for alias in ("none", "nojumps", "bs"):
            assert model_from_dict({"type": alias}) == NoJumps()
            assert model_from_dict(alias) == NoJumps()

    def test_no_jumps_rejects_parameters(self):
        with pytest.raises(ConfigError, match="no parameters"):
            model_from_dict({"type": "none", "lam": 1.0})

    @pytest.mark.parametrize(
        "model", [BENCH_MERTON, BENCH_KOU, BENCH_VG, BENCH_NIG, BENCH_CGMY, NoJumps()]
    )
    def test_round_trip(self, model):
        assert model_from_dict(model_to_dict(model)) == model

    def test_vg_accepts_time_change_parameters(self):
        got = model_from_dict(
            {"type": "vg", "theta": -0.43, "kappa": 0.27, "sigma_vg": 0.23}
        )
        assert got == VarianceGamma.from_bm_params(theta=-0.43, kappa=0.27, sigma_vg=0.23)

    def test_vg_serializes_density_parameters(self):
        d = model_to_dict(BENCH_VG)
        assert set(d) == {"type", "a", "b", "c"}

    def test_vg_rejects_mixed_parameter_sets(self):
        with pytest.raises(ConfigError, match="either"):
            model_from_dict({"type": "vg", "a": -8.0, "kappa": 0.27})

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="unknown model"):
            model_from_dict({"type": "heston"})

    def test_wrong_parameter_names(self):
        with pytest.raises(ConfigError, match="exactly"):
            model_from_dict({"type": "merton", "lam": 0.1, "mu": -0.2, "delta": 0.15})

    def test_invalid_parameter_values(self):
        with pytest.raises(ConfigError, match="invalid merton"):
            model_from_dict({"type": "merton", "lam": 0.1, "m": -0.2, "delta": -1.0})

    def test_supercritical_singularity_is_a_config_error(self):
        with pytest.raises(ConfigError, match="invalid cgmy"):
            model_from_dict({"type": "cgmy", "c": 0.5, "g": 6.0, "m": 8.0, "y": 3.2})


class TestRunConfig:
    def test_minimal_parses_with_defaults(self, tmp_path):
        cfg = RunConfig.from_dict(json.loads(Path(write_cfg(tmp_path)).read_text()))
        assert cfg.style == "european"
        assert cfg.model == NoJumps()
        assert cfg.grid.n_space == 100

    def test_integral_floats_are_counts(self, tmp_path):
        path = write_cfg(
            tmp_path,
            grid={"n_space": 100.0, "n_time": 50.0},
            style="american",
            penalty={"max_picard": 7.0},
        )
        cfg = RunConfig.from_dict(json.loads(Path(path).read_text()))
        assert (cfg.grid.n_space, cfg.grid.n_time, cfg.penalty.max_picard) == (100, 50, 7)
        assert all(
            type(n) is int for n in (cfg.grid.n_space, cfg.grid.n_time, cfg.penalty.max_picard)
        )

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ({"scenarios": []}, "empty"),
            ({"scenarios": [{"rate": 0.1, "spots": []}]}, "empty spot list"),
            ({"scenarios": [{"rate": 0.1, "spots": [1e9]}]}, "outside the grid"),
            ({"option": {"kind": "call", "strike": 100.0, "expiry": 1.0, "sigma": 0.23},
              "style": "american"}, "put"),
            ({"style": "bermudan"}, "style"),
            ({"outputs": [{"kind": "heatmap", "path": "x.csv"}]}, "unknown output kind"),
            ({"option": {"strike": 100.0, "sigma": 0.23}}, "missing field"),
        ],
    )
    def test_validation_failures(self, tmp_path, mutation, message):
        base = json.loads(Path(write_cfg(tmp_path)).read_text())
        base.update(mutation)
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_dict(base)

    def test_boundary_output_needs_american_style(self, tmp_path):
        base = json.loads(Path(write_cfg(tmp_path)).read_text())
        base["outputs"] = [{"kind": "boundary", "path": str(tmp_path / "b.csv")}]
        with pytest.raises(ConfigError, match="american"):
            RunConfig.from_dict(base)

    @pytest.mark.parametrize(
        "command, flags, mutation",
        [
            ("price", [], {"penalty": {"epsilon": 0.5}}),
            ("price", ["--epsilon", "0.01"], {"style": "european", "penalty": {"epsilon": 0.5}}),
            ("price", ["--epsilon", "0.01"], {}),
            ("price", [], {"style": "european", "penalty": {}}),
            ("check", [], {"style": "european", "penalty": {"max_picard": 7}}),
        ],
        ids=["penalty", "penalty-and-flag", "flag", "empty-penalty", "check"],
    )
    def test_penalty_settings_need_american_style(
        self, tmp_path, capsys, command, flags, mutation
    ):
        # refused like a boundary output without american style, before any write
        table = tmp_path / "t.csv"
        path = write_cfg(
            tmp_path,
            model=model_to_dict(BENCH_MERTON),
            outputs=[{"kind": "table", "path": str(table)}],
            **mutation,
        )
        assert main([command, "--config", path, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: penalty settings require style: american\n"
        assert captured.out == "" and not table.exists()

    def test_a_null_penalty_is_no_penalty(self, tmp_path):
        base = json.loads(Path(write_cfg(tmp_path, penalty=None)).read_text())
        assert RunConfig.from_dict(base).penalty is None

    def test_a_null_optional_value_reads_as_its_default(self, tmp_path, capsys):
        path = write_cfg(tmp_path, style=None, grid={"n_space": None, "n_time": 50})
        cfg = RunConfig.from_dict(json.loads(Path(path).read_text()))
        assert (cfg.style, cfg.penalty, cfg.grid.n_space) == ("european", None, 400)
        assert main(["price", "--config", path]) == 0
        assert "V_r0.1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "path, message",
        [
            ("no/such/dir/t.csv", "not writable"),
            ("", "output path is not a file: ''"),
            (".", "output path is not a file: '.'"),
        ],
        ids=["missing-directory", "empty", "directory"],
    )
    def test_unwritable_output_path(self, tmp_path, monkeypatch, capsys, path, message):
        # refused before the first output is written
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(
            tmp_path,
            outputs=[{"kind": "table", "path": "first.csv"}, {"kind": "plotdata", "path": path}],
        )
        assert main(["price", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize(
        "command, flags, mutation, message",
        [
            ("price", [], {"grid": 5}, "grid must be an object"),
            ("check", [], {"grid": [400]}, "grid must be an object"),
            ("price", [], {"style": "american", "penalty": "strong"}, "penalty must be an object"),
            ("price", [], {"scenarios": 0.1}, "scenarios must be a list"),
            ("check", [], {"scenarios": {"rate": 0.1}}, "scenarios must be a list"),
            ("price", [], {"outputs": "table.csv"}, "outputs must be a list"),
            ("price", [], {"grid": {"half_width": 710.0}}, "too wide"),
            ("check", [], {"grid": {"half_width": 1e6}}, "too wide"),
            ("price", [], {"grid": {"n_space": 1e400}}, "inconsistent grid"),
            ("price", ["--grid-n", "200"], {"grid": "fine"}, "grid must be an object"),
            ("price", ["--grid-m", "100"], {"grid": 5}, "grid must be an object"),
            ("price", ["--epsilon", "0.01"], {"penalty": [1e-3]}, "penalty must be an object"),
            ("price", ["--rate", "0.05"], {"scenarios": 5}, "scenarios must be a list"),
            ("price", ["--rate", "0.05"], {"scenarios": [5]}, "each scenario"),
            ("price", ["--output", "t.csv"], {"outputs": ["t.csv"]}, "each output"),
            # a grid refusal quotes the values that break it
            ("price", [], {"grid": {"delta": 1}},
             "error: inconsistent grid: delta must lie in (0, 5*dx], got delta = 1, dx = 0.02\n"),
            ("check", [], {"grid": {"z_max": 5}},
             "error: inconsistent grid: need delta <= z_max <= half_width, got delta = 0.02, "
             "z_max = 5, half_width = 4\n"),
        ],
    )
    def test_malformed_sections_are_one_line_errors(
        self, tmp_path, capsys, command, flags, mutation, message
    ):
        path = write_cfg(tmp_path, **mutation)
        assert main([command, "--config", path, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("command", ["price", "check"])
    @pytest.mark.parametrize(
        "mutation, message",
        [
            ({"option": {**OPTION, "expiry": math.nan}}, "expiry must be finite"),
            ({"option": {**OPTION, "sigma": 1e400}}, "sigma must be finite"),
            ({"option": {**OPTION, "strike": -math.inf}}, "strike must be finite"),
            ({"scenarios": [{"rate": math.nan, "spots": [100.0]}]}, "rate must be finite"),
            ({"scenarios": [{"rate": math.inf, "spots": [100.0]}]}, "rate must be finite"),
            ({"scenarios": [{"rate": -0.1, "spots": [100.0]}]}, "rate must be finite and >= 0"),
            ({"model": {"type": "merton", "lam": math.nan, "m": -0.2, "delta": 0.15}},
             "jump intensity"),
            ({"model": {"type": "merton", "lam": 0.1, "m": math.inf, "delta": 0.15}},
             "mean jump size"),
            ({"model": {"type": "kou", "lam": 0.1, "theta": 0.5, "lam_plus": math.inf,
                        "lam_minus": 2.0}}, "tail rates"),
            ({"model": {"type": "vg", "a": 1.0, "b": math.inf, "c": 3.7}}, "need finite b"),
            ({"model": {"type": "vg", "theta": math.nan, "kappa": 0.27, "sigma_vg": 0.23}},
             "theta must be finite"),
            ({"model": {"type": "vg", "theta": -0.43, "kappa": math.inf, "sigma_vg": 0.23}},
             "kappa and sigma_vg"),
            ({"model": {"type": "nig", "a": -3.0, "b": 10.0, "c": math.nan}}, "scale c"),
            ({"model": {"type": "cgmy", "c": 1.0, "g": 6.0, "m": 8.0, "y": math.nan}},
             "y must be finite"),
            ({"model": {"type": "cgmy", "c": 1.0, "g": math.inf, "m": 8.0, "y": 0.5}},
             "c, g, m"),
            ({"style": "american", "penalty": {"epsilon": math.nan}}, "epsilon must be finite"),
            ({"style": "american", "penalty": {"picard_tol": math.inf}}, "picard_tol"),
            ({"grid": {"half_width": math.inf}}, "half_width must be finite"),
            ({"grid": {"half_width": 4.0, "z_max": math.nan}}, "z_max"),
            # every job is marched on its grid: no key picks the closed form
            ({"closed_form": True}, "unknown config key 'closed_form'"),
            ({"closed_form": False}, "unknown config key 'closed_form'"),
            # Python reads a JSON boolean as 0 or 1
            ({"option": {**OPTION, "expiry": True}}, "expiry must be a number, got true"),
            ({"option": {**OPTION, "rate": False}}, "rate must be a number, got false"),
            ({"model": {"type": "merton", "lam": True, "m": -0.2, "delta": 0.15}},
             "merton lam must be a number, got true"),
            ({"model": {"type": "vg", "theta": -0.43, "kappa": True, "sigma_vg": 0.23}},
             "vg kappa must be a number, got true"),
            ({"grid": {"n_space": 100, "n_time": True}}, "n_time must be a number, got true"),
            ({"grid": {"half_width": True}}, "half_width must be a number, got true"),
            ({"style": "american", "penalty": {"max_picard": True}},
             "max_picard must be a number, got true"),
            ({"style": "american", "penalty": {"picard_tol": False}},
             "picard_tol must be a number, got false"),
            ({"scenarios": [{"rate": False, "spots": [100.0]}]},
             "scenario rate must be a number, got false"),
            ({"scenarios": [{"rate": 0.1, "spots": [100.0, True]}]},
             "spot must be a number, got true"),
            # int() would truncate a fractional count
            ({"grid": {"n_space": 100.5, "n_time": 50}},
             "n_space must be a whole number, got 100.5"),
            ({"grid": {"n_space": 100, "n_time": 50.9}}, "n_time must be a whole number, got 50.9"),
            ({"style": "american", "penalty": {"max_picard": 2.5}},
             "max_picard must be a whole number, got 2.5"),
            # one reader per JSON type: no string is split into spots or
            # turned into a path, and a null reads as absent
            ({"scenarios": [{"rate": 0.1, "spots": "99"}]},
             'scenario spots must be a list, got "99"'),
            ({"outputs": [{"kind": "table", "path": None}]},
             "output section is missing field 'path'"),
            ({"outputs": [{"kind": "table", "path": 5}]}, "output path must be a string, got 5"),
            ({"outputs": [{"kind": None, "path": "t.csv"}]},
             "output section is missing field 'kind'"),
            ({"model": {"type": None}}, "unknown model type: ''"),
            ({"scenarios": [{"spots": [100.0]}]}, "scenario section is missing field 'rate'"),
            ({"scenarios": [{"rate": 0.1}]}, "scenario section is missing field 'spots'"),
            ({"outputs": [{"kind": "table"}]}, "output section is missing field 'path'"),
            # a misspelled key is refused by name, not read as an absent one
            ({"outptus": [{"kind": "table", "path": "t.csv"}]},
             "unknown config key 'outptus' (expected one of option, model, grid, style, "
             "penalty, outputs, scenarios)"),
            ({"grid": {"nspace": 800, "n_time": 50}},
             "unknown grid key 'nspace' (expected one of half_width, n_space, n_time, "
             "z_max, delta)"),
            ({"option": {**OPTION, "strik": 90.0}}, "unknown option key 'strik'"),
            ({"style": "american", "penalty": {"eps": 1e-3}}, "unknown penalty key 'eps'"),
            ({"scenarios": [{"rate": 0.1, "spots": [100.0], "spot": 90.0}]},
             "unknown scenario key 'spot' (expected one of rate, spots)"),
            ({"outputs": [{"kind": "table", "path": "t.csv", "format": "csv"}]},
             "unknown output key 'format' (expected one of kind, path)"),
        ],
    )
    def test_non_finite_and_mistyped_values_are_one_line_errors(
        self, tmp_path, monkeypatch, capsys, command, mutation, message
    ):
        # relative output paths land in tmp_path
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, **mutation)
        assert main([command, "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert captured.out == "" and sorted(os.listdir(tmp_path)) == ["cfg.json"]


class TestOutputCollisions:
    @pytest.mark.parametrize(
        "rates, outputs, flags, clash",
        [
            ([0.1], [("plotdata", "out.csv"), ("plotdata", "out.csv")], [], "out.csv"),
            ([0.1], [("table", "out.csv"), ("plotdata", "out.csv")], [], "out.csv"),
            # the table path is used as given, the surface's gets _r<rate>
            ([0.0, 0.1], [("table", "s_r0.1.csv"), ("surface", "s.csv")], [], "s_r0.1.csv"),
            # two scenarios of one rate give one suffixed name
            ([0.1, 0.1], [("plotdata", "p.csv")], [], "p_r0.1.csv"),
            ([0.1], [("plotdata", "out.csv")], ["--output", "out.csv"], "out.csv"),
        ],
        ids=["same-kind", "cross-kind", "suffix", "same-rate", "output-flag"],
    )
    def test_is_refused_before_any_write(
        self, tmp_path, monkeypatch, capsys, rates, outputs, flags, clash
    ):
        monkeypatch.chdir(tmp_path)
        path = write_cfg(
            tmp_path,
            model=model_to_dict(BENCH_MERTON),
            scenarios=[{"rate": r, "spots": [100.0]} for r in rates],
            # one path absolute and one relative: they are compared resolved
            outputs=[
                {"kind": kind, "path": str(tmp_path / name) if i == 0 else name}
                for i, (kind, name) in enumerate(outputs)
            ],
        )
        assert main(["price", "--config", path, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: two outputs write the same file: ")
        assert err.endswith(f"{clash}\n") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


class TestEmitPlotdata:
    def test_columns_keep_the_given_order(self, tmp_path):
        spec = bench_spec(rate=0.0)
        surface = solve_european(spec, BENCH_MERTON, GridSpec(n_space=100, n_time=50))
        path = tmp_path / "plot.csv"
        emit_plotdata({"merton": surface, "bs": lambda S: bs_price(spec, S)}, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "S,V_merton,V_bs"
        assert len(lines) == 92  # header + 91 samples
        assert float(lines[1].split(",")[0]) == 80.0

    def test_model_ordering_on_the_benchmark(self, tmp_path):
        # at r=0 the subordinated model carries the most time value, the
        # lognormal-jump model sits between it and the plain diffusion
        spec = bench_spec(rate=0.0)
        grid = GridSpec()
        path = tmp_path / "plot.csv"
        emit_plotdata(
            {
                "bs": lambda S: bs_price(spec, S),
                "vg": solve_european(spec, BENCH_VG, grid),
                "merton": solve_european(spec, BENCH_MERTON, grid),
            },
            str(path),
        )
        rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
        rows = [row for row in rows if 85.0 <= float(row[0]) <= 113.0]
        assert len(rows) == 57
        for _, v_bs, v_vg, v_merton in rows:
            assert float(v_vg) >= float(v_merton) >= float(v_bs)

    def test_rejects_empty_and_degenerate(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            emit_plotdata({}, str(tmp_path / "p.csv"))


class TestPriceCommand:
    def test_grid_solve_close_to_closed_form(self, tmp_path):
        out = tmp_path / "table.csv"
        path = write_cfg(
            tmp_path,
            grid={"n_space": 200, "n_time": 100},
            outputs=[{"kind": "table", "path": str(out)}],
        )
        assert main(["price", "--config", path]) == 0
        spec = bench_spec(rate=0.1)
        for line in out.read_text().strip().split("\n")[1:]:
            s, _, v = (float(tok) for tok in line.split(","))
            assert v == pytest.approx(bs_price(spec, s), abs=0.1)

    def test_multi_scenario_columns_and_suffixes(self, tmp_path):
        table = tmp_path / "t.csv"
        surf = tmp_path / "s.csv"
        path = write_cfg(
            tmp_path,
            scenarios=[
                {"rate": 0.0, "spots": [90.0, 100.0]},
                {"rate": 0.1, "spots": [100.0, 110.0]},
            ],
            outputs=[
                {"kind": "table", "path": str(table)},
                {"kind": "surface", "path": str(surf)},
            ],
        )
        assert main(["price", "--config", path]) == 0
        header = table.read_text().split("\n")[0]
        assert header == "S,payoff,V_r0,V_r0.1"
        assert (tmp_path / "s_r0.csv").exists()
        assert (tmp_path / "s_r0.1.csv").exists()
        assert not surf.exists()

    def test_american_run_writes_boundary(self, tmp_path):
        bpath = tmp_path / "b.csv"
        path = write_cfg(
            tmp_path,
            model={"type": "merton", "lam": 0.1, "m": -0.2, "delta": 0.15},
            style="american",
            outputs=[{"kind": "boundary", "path": str(bpath)}],
        )
        assert main(["price", "--config", path]) == 0
        lines = bpath.read_text().strip().split("\n")
        assert lines[0] == "tau,s_f"
        assert len(lines) == 52  # header + 51 time levels

    @pytest.mark.parametrize("style", ["european", "american"])
    def test_one_price_lookup_per_job_and_per_plot_column(self, tmp_path, monkeypatch, style):
        # a job's table prices (jobs.price_jobs) and a plotdata column
        # (cli.emit_plotdata) each come from one price_at call over all their
        # spots
        lookups = []
        price_at = cli.price_at

        def spy(surface, t, S):
            lookups.append(np.size(S))
            return price_at(surface, t, S)

        monkeypatch.setattr(jobs, "price_at", spy)
        monkeypatch.setattr(cli, "price_at", spy)
        path = write_cfg(
            tmp_path,
            model=model_to_dict(BENCH_MERTON),
            style=style,
            scenarios=[
                {"rate": 0.05, "spots": [90.0, 100.0, 110.0, 100.0]},
                {"rate": 0.1, "spots": [100.0]},
            ],
            outputs=[
                {"kind": "table", "path": str(tmp_path / "t.csv")},
                {"kind": "plotdata", "path": str(tmp_path / "p.csv")},
            ],
        )
        assert main(["price", "--config", path]) == 0
        assert lookups == [4, 1, 91, 91]

    def test_plotdata_output(self, tmp_path):
        ppath = tmp_path / "p.csv"
        path = write_cfg(
            tmp_path,
            model={"type": "merton", "lam": 0.1, "m": -0.2, "delta": 0.15},
            outputs=[{"kind": "plotdata", "path": str(ppath)}],
        )
        assert main(["price", "--config", path]) == 0
        assert ppath.read_text().split("\n")[0] == "S,V_bs,V_merton"

    @pytest.mark.parametrize(
        "option, grid",
        [
            (OPTION, {"half_width": 0.15, "n_space": 100, "n_time": 50}),
            ({**OPTION, "strike": 2.0}, {"n_space": 100, "n_time": 50}),
        ],
        ids=["narrow-grid", "low-strike"],
    )
    def test_plotdata_off_the_grid_is_refused_before_any_write(
        self, tmp_path, capsys, option, grid
    ):
        # the plot spots run over [80, 125]; the grid must cover them
        table, plot = tmp_path / "t.csv", tmp_path / "p.csv"
        path = write_cfg(
            tmp_path,
            option=option,
            grid=grid,
            model={"type": "merton", "lam": 0.1, "m": -0.2, "delta": 0.15},
            scenarios=[{"rate": 0.1, "spots": [option["strike"]]}],
            outputs=[
                {"kind": "table", "path": str(table)},
                {"kind": "plotdata", "path": str(plot)},
            ],
        )
        assert main(["price", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: plotdata spots [80, 125] lie outside the grid range")
        assert err.count("\n") == 1
        assert not table.exists() and not plot.exists()

    def test_readme_config_runs(self, tmp_path, monkeypatch):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("A config is JSON:", 1)[1].split("```json\n", 1)[1]
        (tmp_path / "readme.json").write_text(block.split("```", 1)[0])
        monkeypatch.chdir(tmp_path)
        argv = ["price", "--config", "readme.json", "--grid-n", "100", "--grid-m", "50"]
        assert main(argv) == 0
        # one table for both scenarios, one plotdata file per scenario
        for name in ("prices.csv", "curves_r0.csv", "curves_r0.1.csv"):
            assert (tmp_path / name).exists()

    def test_rate_override_merges_identical_scenarios(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            scenarios=[
                {"rate": 0.0, "spots": [100.0]},
                {"rate": 0.1, "spots": [100.0]},
            ],
        )
        assert main(["price", "--config", path, "--rate", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "V_r0.05" in out
        assert out.split("\n")[0].count("V_r") == 1

    def test_model_override_inline_json(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        arg = json.dumps({"type": "kou", "lam": 0.1, "theta": 0.5,
                          "lam_plus": 3.0, "lam_minus": 2.0})
        assert main(["price", "--config", path, "--model", arg]) == 0
        assert "V_r0.1" in capsys.readouterr().out

    def test_model_override_bad_json(self, tmp_path):
        path = write_cfg(tmp_path)
        assert main(["price", "--config", path, "--model", "{not json"]) == 1

    def test_grid_override(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        code = main(["price", "--config", path, "--grid-n", "80", "--grid-m", "40"])
        assert code == 0
        assert "V_r0.1" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path):
        assert main(["price", "--config", str(tmp_path / "absent.json")]) == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        assert main(["price", "--config", str(path)]) == 1

    def test_unknown_model_in_config(self, tmp_path):
        path = write_cfg(tmp_path, model={"type": "heston"})
        assert main(["price", "--config", path]) == 1

    def test_a_model_without_a_witness_is_a_numerical_failure(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        path = write_cfg(
            tmp_path, model=NO_WITNESS, outputs=[{"kind": "table", "path": str(table)}]
        )
        assert main(["price", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "numerical failure in V_r0.1: measure is not admissible: "
            f"{WITNESS_UNAVAILABLE}\n"
        )
        assert captured.out == "" and not table.exists()

    def test_stalled_penalty_iteration_is_a_numerical_failure(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            style="american",
            penalty={"max_picard": 1, "picard_tol": 1e-15},
        )
        assert main(["price", "--config", path]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_a_european_price_outside_the_static_bounds_is_a_numerical_failure(
        self, tmp_path, capsys
    ):
        # dt*c_loc/dx^2 = 0.605 on the default grid: the explicit small-jump
        # stencil grows slowly enough to pass the growth guard, and the put
        # prices at -154.411
        table = tmp_path / "t.csv"
        path = write_cfg(
            tmp_path,
            option={**OPTION, "sigma": 0.442},
            model={"type": "cgmy", "c": 0.45894, "g": 19.342, "m": 13.666, "y": 1.3478},
            grid=None,
            scenarios=[{"rate": 0.0, "spots": [100.0]}],
            outputs=[{"kind": "table", "path": str(table)}],
        )
        assert main(["price", "--config", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not table.exists()
        assert err.startswith("numerical failure in V_r0: price -154.411 at S = 100 ")
        assert "static lower bound 0 " in err
        assert "dt*W = 0.457" in err and "dt*c_loc/dx^2 = 0.605" in err

    @pytest.mark.parametrize("style", ["european", "american"])
    @pytest.mark.parametrize(
        "model, numbers",
        [
            ({"type": "vg", "a": 0.5, "b": 1.2, "c": 1.0},
             "alpha = 1, mu = 0, d_minus + 1 = 0.3, d_plus = 1.7"),
            ({"type": "kou", "lam": 1.0, "theta": 0.5, "lam_plus": 1.0, "lam_minus": 3.0},
             "alpha = 0, mu = 0, d_minus + 1 = 0, d_plus = 3"),
        ],
        ids=["vg", "kou"],
    )
    def test_an_inadmissible_measure_is_refused_before_any_write(
        self, tmp_path, capsys, model, numbers, style
    ):
        # both pass the integrability check, but E[e^J] diverges: the solve
        # priced the truncation (a VG put of 73.2387 at S = K, and a Kou put
        # that grew with the half-width)
        table = tmp_path / "t.csv"
        path = write_cfg(
            tmp_path,
            option={**OPTION, "sigma": 0.2},
            model=model,
            style=style,
            grid=None,
            scenarios=[{"rate": 0.05, "spots": [100.0]}],
            outputs=[{"kind": "table", "path": str(table)}],
        )
        assert main(["price", "--config", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not table.exists()
        assert err == (
            "numerical failure in V_r0.05: measure is not admissible: need alpha < 3 and, "
            f"with mu = 0, d_minus + 1 < 0 < d_plus; got {numbers}\n"
        )

    def test_epsilon_override_reaches_the_solver(self, tmp_path):
        path = write_cfg(tmp_path, style="american")
        assert main(["price", "--config", path, "--epsilon", "1e-2"]) == 0

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        table = tmp_path / "t.csv"
        plot = tmp_path / "p.csv"
        path = write_cfg(
            tmp_path,
            model={"type": "merton", "lam": 0.1, "m": -0.2, "delta": 0.15},
            scenarios=[
                {"rate": 0.0, "spots": [90.0, 100.0, 110.0]},
                {"rate": 0.1, "spots": [90.0, 100.0, 110.0]},
            ],
            outputs=[
                {"kind": "table", "path": str(table)},
                {"kind": "plotdata", "path": str(plot)},
            ],
        )
        assert main(["price", "--config", path]) == 0
        first = {
            p.name: p.read_bytes() for p in tmp_path.glob("*.csv") if p.name != "cfg.json"
        }
        monkeypatch.setenv("LEVYPIDE_WORKERS", "1")
        assert main(["price", "--config", path]) == 0
        second = {
            p.name: p.read_bytes() for p in tmp_path.glob("*.csv") if p.name != "cfg.json"
        }
        assert first == second

    def test_every_table_output_is_written(self, tmp_path):
        first, second = tmp_path / "t.csv", tmp_path / "u.csv"
        path = write_cfg(
            tmp_path,
            outputs=[
                {"kind": "table", "path": str(first)},
                {"kind": "table", "path": str(second)},
            ],
        )
        assert main(["price", "--config", path]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text().startswith("S,payoff,V_r0.1\n")


@pytest.fixture(params=["inline", "pooled"])
def levels_kept(request, monkeypatch):
    """The number of time levels of every surface the CLI's jobs return, in
    job order, European or American, with the jobs marched inline or on a
    pool."""
    if request.param == "pooled":
        request.getfixturevalue("pooled")
    counts = []
    price_jobs = cli.price_jobs

    def spy(job_list, keep_levels):
        outcomes = price_jobs(job_list, keep_levels)
        counts.extend(len(out.surface.taus) for out in outcomes if out.surface is not None)
        return outcomes

    monkeypatch.setattr(cli, "price_jobs", spy)
    return counts


class TestTimeLevels:
    """A job keeps every time level only when a surface or boundary output
    reads them; table and plotdata read t = 0 alone."""

    def test_table1_keeps_two_levels(self, levels_kept):
        assert main(["table1", "--grid-n", "100", "--grid-m", "50"]) == 0
        assert levels_kept == [2] * 4

    @pytest.mark.parametrize("style", ["european", "american"])
    def test_table_and_plotdata_keep_two_levels(self, tmp_path, levels_kept, style):
        path = write_cfg(
            tmp_path,
            model=model_to_dict(BENCH_MERTON),
            style=style,
            scenarios=[{"rate": 0.05, "spots": [100.0]}, {"rate": 0.1, "spots": [100.0]}],
            outputs=[
                {"kind": "table", "path": str(tmp_path / "t.csv")},
                {"kind": "plotdata", "path": str(tmp_path / "p.csv")},
            ],
        )
        assert main(["price", "--config", path]) == 0
        assert levels_kept == [2, 2]

    @pytest.mark.parametrize(
        "style, kind, lines",
        [("european", "surface", 51 * 101 + 1), ("american", "surface", 51 * 101 + 1),
         ("american", "boundary", 51 + 1)],
        ids=["european-surface", "american-surface", "american-boundary"],
    )
    def test_surface_and_boundary_keep_every_level(
        self, tmp_path, levels_kept, style, kind, lines
    ):
        # the grid is 100 x 50: (M+1)(N+1) surface rows, M+1 boundary rows
        out = tmp_path / f"{kind}.csv"
        path = write_cfg(
            tmp_path,
            model=model_to_dict(BENCH_MERTON),
            style=style,
            outputs=[
                {"kind": "table", "path": str(tmp_path / "t.csv")},
                {"kind": kind, "path": str(out)},
            ],
        )
        assert main(["price", "--config", path]) == 0
        assert levels_kept == [51]
        assert len(out.read_text().splitlines()) == lines

    @pytest.mark.parametrize("style", ["european", "american"])
    def test_a_surface_output_leaves_the_other_files_as_they_were(self, tmp_path, style):
        files = []
        for extra in ([], [{"kind": "surface", "path": str(tmp_path / "s.csv")}]):
            table, plot = tmp_path / f"t{len(extra)}.csv", tmp_path / f"p{len(extra)}.csv"
            path = write_cfg(
                tmp_path,
                model=model_to_dict(BENCH_MERTON),
                style=style,
                outputs=[
                    {"kind": "table", "path": str(table)},
                    {"kind": "plotdata", "path": str(plot)},
                    *extra,
                ],
            )
            assert main(["price", "--config", path]) == 0
            files.append((table.read_bytes(), plot.read_bytes()))
        assert files[0] == files[1]


VG_BM = {"type": "vg", "theta": -0.43, "kappa": 0.27, "sigma_vg": 0.23}
STIFF_CGMY = {"type": "cgmy", "c": 1.0, "g": 6.0, "m": 8.0, "y": 1.5}


def runs_by_workers(monkeypatch, capsys, tmp_path, argv_for, workers=("1", "2", "3")):
    """Per worker count: the exit code, stdout, stderr and every file the run
    wrote, by name; argv_for(out_dir) gives the command line."""
    runs = {}
    for n in workers:
        monkeypatch.setenv("LEVYPIDE_WORKERS", n)
        out_dir = tmp_path / f"w{n}"
        out_dir.mkdir()
        code = main(argv_for(out_dir))
        out, err = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        runs[n] = (code, out, err, files)
    return runs


def two_scenario_cfg(tmp_path, out_dir, model=model_to_dict(BENCH_MERTON)):
    """A European config with scenarios r = 0 and 0.1 writing a table, plot
    data and surfaces into out_dir."""
    return write_cfg(
        tmp_path,
        name=f"{out_dir.name}.json",
        model=model,
        scenarios=[{"rate": 0.0, "spots": [90.0, 100.0]}, {"rate": 0.1, "spots": [90.0, 100.0]}],
        outputs=[
            {"kind": "table", "path": str(out_dir / "t.csv")},
            {"kind": "plotdata", "path": str(out_dir / "p.csv")},
            {"kind": "surface", "path": str(out_dir / "s.csv")},
        ],
    )


class TestLockstepJobs:
    """European jobs whose operators share one pide.Lockstep.key march as
    the rows of one batch; the outputs do not depend on how the jobs were
    split."""

    def test_table1_is_byte_identical_for_one_two_and_three_workers(
        self, tmp_path, monkeypatch, capsys, pooled
    ):
        runs = runs_by_workers(
            monkeypatch, capsys, tmp_path, lambda d: ["table1", "--output", str(d / "t1.csv")]
        )
        assert runs["1"][0] == 0 and runs["1"][3]
        assert runs["1"] == runs["2"] == runs["3"]

    def test_price_is_byte_identical_for_one_two_and_three_workers(
        self, tmp_path, monkeypatch, capsys, pooled
    ):
        runs = runs_by_workers(
            monkeypatch, capsys, tmp_path,
            lambda d: ["price", "--config", two_scenario_cfg(tmp_path, d)],
        )
        assert runs["1"][0] == 0 and len(runs["1"][3]) == 5  # table, 2 plotdata, 2 surfaces
        assert runs["1"] == runs["2"] == runs["3"]

    def test_american_price_is_byte_identical_for_one_two_and_three_workers(
        self, tmp_path, monkeypatch, capsys, pooled
    ):
        # a pool's child marches each American job on the operators, penalty
        # sweep included, that it inherited at fork
        def argv_for(out_dir):
            path = write_cfg(
                tmp_path,
                name=f"{out_dir.name}.json",
                model=VG_BM,
                style="american",
                scenarios=[{"rate": 0.0, "spots": [90.0, 100.0]},
                           {"rate": 0.1, "spots": [90.0, 100.0]}],
                outputs=[
                    {"kind": "table", "path": str(out_dir / "t.csv")},
                    {"kind": "boundary", "path": str(out_dir / "b.csv")},
                    {"kind": "plotdata", "path": str(out_dir / "p.csv")},
                ],
            )
            return ["price", "--config", path]

        runs = runs_by_workers(monkeypatch, capsys, tmp_path, argv_for)
        code, out, err, files = runs["1"]
        assert code == 0 and len(files) == 5  # table, 2 boundaries, 2 plotdata
        assert err.count("warning: structural condition violated") == 2
        assert runs["1"] == runs["2"] == runs["3"]

    def test_a_guard_trip_names_the_first_failing_job_for_any_worker_count(
        self, tmp_path, monkeypatch, capsys, pooled
    ):
        runs = runs_by_workers(
            monkeypatch, capsys, tmp_path,
            lambda d: ["price", "--config", two_scenario_cfg(tmp_path, d, model=STIFF_CGMY)],
        )
        code, out, err, files = runs["1"]
        assert (code, out, files) == (2, "", {})
        assert err.startswith("numerical failure in V_r0: time step amplified the solution")
        assert runs["1"] == runs["2"] == runs["3"]


@pytest.fixture
def march_pids(monkeypatch):
    """Spy on jobs._march: a function that returns the process id of every
    march since the last call, read through a pipe that a pool's children
    inherit."""
    pipe = multiprocessing.get_context("fork").SimpleQueue()
    march = jobs._march

    def spy(rows, *args):
        pipe.put(os.getpid())
        return march(rows, *args)

    def drain():
        pids = []
        while not pipe.empty():
            pids.append(pipe.get())
        return pids

    monkeypatch.setattr(jobs, "_march", spy)
    yield drain
    pipe.close()


class TestMarchPool:
    """Above a work crossover, a run of several marches forks a pool of
    processes, at most LEVYPIDE_WORKERS and one per CPU; otherwise the marches
    run inline, one after another."""

    def test_a_pooled_run_marches_in_its_children(self, pooled, march_pids):
        assert main(["table1", "--grid-n", "100", "--grid-m", "50"]) == 0
        # table1's four jump jobs share one Lockstep.key: two marches of two
        pids = march_pids()
        assert len(pids) == 2 and os.getpid() not in pids

    @pytest.mark.parametrize("case", ["below-crossover", "one-worker", "one-cpu", "no-fork"])
    def test_marches_run_inline(self, monkeypatch, pooled, march_pids, case):
        if case == "below-crossover":
            # table1's four jump jobs at 400 x 200: 4 x 401 x 200 node-steps
            monkeypatch.setattr(jobs, "_POOL_MIN_WORK", 4 * 401 * 200 + 1)
        elif case == "one-worker":
            monkeypatch.setenv("LEVYPIDE_WORKERS", "1")
        elif case == "one-cpu":
            monkeypatch.setattr(jobs, "_cpu_count", lambda: 1)
        else:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert main(["table1"]) == 0
        # inline, a Lockstep batch marches whole: table1's four jump jobs
        assert march_pids() == [os.getpid()]

    def test_one_job_marches_inline(self, tmp_path, pooled, march_pids):
        path = write_cfg(tmp_path, model=model_to_dict(BENCH_MERTON), style="american")
        assert main(["price", "--config", path]) == 0
        assert march_pids() == [os.getpid()]

    def test_a_worker_that_dies_is_a_one_line_error(self, tmp_path, monkeypatch, capsys, pooled):
        parent = os.getpid()
        march = jobs._march

        def dies_in_a_child(rows, *args):
            if os.getpid() != parent:
                os._exit(1)
            return march(rows, *args)

        monkeypatch.setattr(jobs, "_march", dies_in_a_child)
        out = tmp_path / "table1.csv"
        args = ["table1", "--grid-n", "100", "--grid-m", "50", "--output", str(out)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: a worker process died while marching\n"
        assert captured.out == ""
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "raw, message",
        [("abc", "must be an integer, got 'abc'"), ("0", "must be >= 1, got 0"),
         ("-2", "must be >= 1, got -2")],
    )
    @pytest.mark.parametrize("command", ["table1", "american-price"])
    def test_a_bad_worker_count_is_refused_before_any_warning_or_write(
        self, tmp_path, monkeypatch, capsys, command, raw, message
    ):
        # the American jobs' measure violates the structural condition, so a
        # refusal after planning would follow two warning lines
        monkeypatch.chdir(tmp_path)
        if command == "table1":
            argv = ["table1", "--grid-n", "100", "--grid-m", "50", "--output", "t.csv"]
        else:
            path = write_cfg(
                tmp_path,
                model=VG_BM,
                style="american",
                scenarios=[{"rate": 0.0, "spots": [100.0]}, {"rate": 0.1, "spots": [100.0]}],
                outputs=[{"kind": kind, "path": f"{kind}.csv"}
                         for kind in ("table", "boundary", "plotdata")],
            )
            argv = ["price", "--config", path]
        written = sorted(os.listdir(tmp_path))
        monkeypatch.setenv("LEVYPIDE_WORKERS", raw)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: LEVYPIDE_WORKERS {message}\n"
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == written

    def test_no_process_is_left_after_a_pooled_run(self, tmp_path, capsys, pooled):
        assert main(["table1", "--grid-n", "100", "--grid-m", "50"]) == 0
        assert multiprocessing.active_children() == []
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        path = two_scenario_cfg(tmp_path, out_dir, model=STIFF_CGMY)
        assert main(["price", "--config", path]) == 2
        assert "numerical failure in V_r0: time step amplified" in capsys.readouterr().err
        assert multiprocessing.active_children() == []


class TestAmericanWarnings:
    """A measure that violates the structural condition prices with one
    `warning: <message>` line on stderr per American job, in job order,
    written before any march."""

    def test_structural_warnings_come_in_job_order_when_the_second_job_ends_first(
        self, tmp_path, monkeypatch, capsys, pooled
    ):
        # the spy runs in the pool's children, which inherit the event
        fork = multiprocessing.get_context("fork")
        second_done = fork.Event()
        march = jobs._march

        def first_waits(rows, *args):
            rate = rows[0].spec.rate
            if rate == 0.0:
                assert second_done.wait(timeout=60)
            try:
                return march(rows, *args)
            finally:
                if rate == 0.1:
                    second_done.set()

        monkeypatch.setattr(jobs, "_march", first_waits)
        path = write_cfg(
            tmp_path,
            model=VG_BM,
            style="american",
            scenarios=[{"rate": 0.0, "spots": [100.0]}, {"rate": 0.1, "spots": [100.0]}],
        )
        assert main(["price", "--config", path]) == 0
        assert second_done.is_set()
        first, second = capsys.readouterr().err.splitlines()
        assert first.startswith("warning: structural") and "vs rate 0)" in first
        assert second.startswith("warning: structural") and "vs rate 0.1)" in second

    def test_a_failing_job_still_reports_its_warning_first(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            model=VG_BM,
            style="american",
            penalty={"max_picard": 1, "picard_tol": 1e-15},
        )
        assert main(["price", "--config", path]) == 2
        warning, failure = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: structural condition violated")
        assert failure.startswith("numerical failure in V_r0.1: penalty iteration")

    def test_every_job_of_every_call_writes_its_own_line(self, tmp_path, capsys):
        # two jobs at one rate repeat one message, and a second call in the
        # same process repeats both
        path = write_cfg(
            tmp_path,
            model=VG_BM,
            style="american",
            scenarios=[{"rate": 0.1, "spots": [100.0]}, {"rate": 0.1, "spots": [110.0]}],
        )
        for _ in range(2):
            assert main(["price", "--config", path]) == 0
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 2 and lines[0] == lines[1]
            assert lines[0].startswith("warning: structural condition violated")

    def test_runs_when_runtime_warnings_are_errors(self, tmp_path):
        path = write_cfg(
            tmp_path,
            model=VG_BM,
            style="american",
            scenarios=[{"rate": 0.0, "spots": [100.0]}, {"rate": 0.1, "spots": [100.0]}],
        )
        proc = run_module("price", "--config", path, flags=("-W", "error::RuntimeWarning"))
        assert proc.returncode == 0, proc.stderr
        first, second = proc.stderr.splitlines()
        assert first.startswith("warning: structural") and "vs rate 0)" in first
        assert second.startswith("warning: structural") and "vs rate 0.1)" in second
        assert "V_r0" in proc.stdout


class TestCheckCommand:
    def test_no_jump_model_is_vacuous(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        assert main(["check", "--config", path]) == 0
        assert "vacuous" in capsys.readouterr().out

    def test_passing_model(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path, model={"type": "merton", "lam": 0.1, "m": -0.2, "delta": 0.15}
        )
        assert main(["check", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "witness: alpha=0" in out
        assert "integrability: passed=True" in out
        assert "structural r=0.1: passed=True" in out

    def test_lognormal_jumps_fail_structural_at_zero_rate(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            model={"type": "merton", "lam": 0.1, "m": -0.2, "delta": 0.15},
            scenarios=[{"rate": 0.0, "spots": [100.0]}],
        )
        assert main(["check", "--config", path]) == 2
        assert "structural r=0: passed=False" in capsys.readouterr().out

    def test_subordinated_model_fails_structural_at_table_rate(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            model={"type": "vg", "theta": -0.43, "kappa": 0.27, "sigma_vg": 0.23},
        )
        assert main(["check", "--config", path]) == 2
        out = capsys.readouterr().out
        assert "witness: alpha=1" in out
        assert "structural r=0.1: passed=False" in out

    def test_supercritical_tempered_stable_fails_everything(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path, model={"type": "cgmy", "c": 0.5, "g": 6.0, "m": 8.0, "y": 2.5}
        )
        assert main(["check", "--config", path]) == 2
        out = capsys.readouterr().out
        assert "admissible=False" in out
        assert "integrability: passed=False" in out

    def test_a_witness_that_cannot_be_built_fails_every_measure_check(self, tmp_path, capsys):
        path = write_cfg(tmp_path, model=NO_WITNESS)
        assert main(["check", "--config", path]) == 2
        captured = capsys.readouterr()
        reason = WITNESS_UNAVAILABLE.removeprefix("witness unavailable: ")
        assert captured.out == (
            "model: merton\n"
            f"witness: unavailable ({reason})\n"
            f"integrability: passed=False value=nan ({WITNESS_UNAVAILABLE})\n"
            f"structural r=0.1: passed=False value=nan ({WITNESS_UNAVAILABLE})\n"
        )
        assert captured.err == ""

    def test_parse_error(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "absent.json")]) == 1

    def test_narrow_lognormal_jumps_pass_every_check(self, tmp_path, capsys):
        # delta = 0.002: the whole measure sits next to z = -0.8
        path = write_cfg(tmp_path, model={"type": "merton", "lam": 1.0, "m": -0.8, "delta": 0.002})
        assert main(["check", "--config", path]) == 0
        assert "integrability: passed=True value=0.640004 " in capsys.readouterr().out

    @pytest.mark.parametrize("name", list(CHECK_STDOUT))
    def test_frozen_stdout_on_the_benchmark_families(self, tmp_path, capsys, name):
        path = write_cfg(
            tmp_path,
            model=model_to_dict(ALL_JUMP_MODELS[name]),
            scenarios=[{"rate": 0.0, "spots": [100.0]}, {"rate": 0.1, "spots": [100.0]}],
        )
        assert main(["check", "--config", path]) == 2
        assert capsys.readouterr().out == CHECK_STDOUT[name]


class TestTable1:
    def test_preset_writes_full_csv(self, tmp_path, capsys):
        out = tmp_path / "table1.csv"
        code = main(["table1", "--grid-n", "100", "--grid-m", "50", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == (
            "S,payoff,bs_sigma0.12_r0,bs_sigma0.23_r0,merton_r0,vg_r0,"
            "bs_sigma0.12_r0.1,bs_sigma0.23_r0.1,merton_r0.1,vg_r0.1"
        )
        assert len(lines) == 9
        atm = lines[5].split(",")
        assert float(atm[0]) == 100.0
        assert float(atm[1]) == 0.0
        # both volatility conventions are emitted side by side
        assert float(atm[2]) == pytest.approx(4.78444, abs=1e-4)
        assert float(atm[3]) == pytest.approx(9.15549, abs=1e-4)  # 100 (2 N(0.115) - 1)
        assert "merton_r0" in capsys.readouterr().out

    def test_default_grid_is_gridspec_default(self, tmp_path, capsys):
        implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
        assert main(["table1", "--output", str(implicit)]) == 0
        argv = ["table1", "--grid-n", "400", "--grid-m", "200", "--output", str(explicit)]
        assert main(argv) == 0
        assert implicit.read_bytes() == explicit.read_bytes()
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[: len(stdout) // 2] == stdout[len(stdout) // 2:]

    def test_unwritable_output(self, tmp_path, capsys):
        dest = tmp_path / "no/dir/t.csv"
        assert main(["table1", "--output", str(dest)]) == 1
        assert capsys.readouterr().err == (
            f"error: output path not writable: {dest} "
            f"(directory {dest.parent} missing or read-only)\n"
        )

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--grid-n", "n_space must be an even count >= 4, got 0"),
            ("--grid-m", "n_time must be a finite count >= 1, got 0"),
        ],
        ids=["grid-n", "grid-m"],
    )
    def test_zero_grid_count_is_refused(self, tmp_path, capsys, flag, message):
        dest = tmp_path / "t.csv"
        assert main(["table1", flag, "0", "--output", str(dest)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not dest.exists()

    def test_byte_identical_across_worker_counts(self, tmp_path, monkeypatch, capsys):
        runs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("LEVYPIDE_WORKERS", workers)
            out = tmp_path / f"table1_w{workers}.csv"
            argv = ["table1", "--grid-n", "100", "--grid-m", "50", "--output", str(out)]
            assert main(argv) == 0
            runs.append((out.read_bytes(), capsys.readouterr().out))
        assert runs[0] == runs[1]


class TestMainEntry:
    """A bad command line is one `error: <reason>` line on stderr, exit 1."""

    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr() == ("", "error: the following arguments are required: command\n")

    def test_missing_required_flag(self, capsys):
        assert main(["price"]) == 1
        assert capsys.readouterr() == ("", "error: the following arguments are required: --config\n")

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert capsys.readouterr() == (
            "",
            "error: argument command: invalid choice: 'frobnicate' "
            "(choose from 'price', 'check', 'table1')\n",
        )

    def test_unknown_flag(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        assert main(["price", "--config", path, "--closed-form"]) == 1
        assert capsys.readouterr() == ("", "error: unrecognized arguments: --closed-form\n")

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "price" in capsys.readouterr().out

    def test_runs_as_a_module(self, tmp_path):
        path = write_cfg(
            tmp_path, model={"type": "merton", "lam": 0.1, "m": -0.2, "delta": 0.15}
        )
        proc = run_module("check", "--config", path)
        assert proc.returncode == 0, proc.stderr
        assert "integrability: passed=True" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr
