"""The benchmark's three workloads.

Each workload is made from a seed, then run as repeated passes.  A pass is a
fixed amount of work; only the calls into levypide's public entry points are
timed.  Writing inputs, reading outputs and checking them happen outside the
timed calls, in `check_pass` and `final_checks`.

Every timed call reaches levypide through a module attribute
(`lp.cli.main`, `lp.pide.solve_european`, ...), so that the traced run's
wrappers see it.  Every file a timed call writes is a new path in a fresh
per-pass directory; the directory is removed after the pass is checked.
CLI output is captured in memory.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# The CLI's exit code for a numerical failure; the only failure a call may end in.
EXIT_NUMERICAL = 2


@dataclass
class PassResult:
    """One pass: timed work, outcomes, and where its files are."""

    wall_s: float = 0.0
    jobs_ms: list[float] = field(default_factory=list)
    solves: int = 0
    attempted: int = 0
    refused: int = 0
    errors: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)
    out_dir: Path | None = None
    payload: object = None  # what check_pass needs besides the files
    layers: dict[str, float] | None = None


def call_cli(lp: SimpleNamespace, argv: list[str]) -> tuple[int | None, float, str]:
    """Time one `levypide` CLI call in process; return (exit code, seconds,
    captured stderr).  An exception escaping main gives exit code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = lp.cli.main(argv)
        except Exception:  # the gate reports it; the benchmark keeps running
            rc = None
            err.write(traceback.format_exc())
        t1 = time.perf_counter()
    return rc, t1 - t0, err.getvalue()


def read_columns(path: Path) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def close(a: float, b: float, rel: float = 1e-8) -> bool:
    """Equal to the 9 significant digits the CLI writes."""
    return abs(a - b) <= rel * max(1.0, abs(b))


class Workload:
    """Base: a run directory, a pass counter and fresh per-pass directories."""

    name = ""

    def __init__(self, lp: SimpleNamespace, seed: int, run_dir: Path) -> None:
        self.lp = lp
        self.seed = seed
        self.run_dir = run_dir
        self._dirs = itertools.count()
        # Absolute errors of the workload's prices against an independent oracle.
        self.oracle_errors: list[float] = []

    def fresh_dir(self) -> Path:
        d = self.run_dir / f"p{next(self._dirs)}"
        d.mkdir()
        return d

    def warm_up(self) -> PassResult:
        """A short untimed pass that loads code paths before timing starts."""
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check_pass(self, res: PassResult) -> None:
        """Check the pass's outputs, record errors in res, remove its files."""
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Oracle checks that need not be repeated per pass."""
        return []


# ---------------------------------------------------------------------------
# table1_fine


class Table1Fine(Workload):
    """`levypide table1 --grid-n 3200 --grid-m 1600`: four PIDE solves (Merton
    and VG at r in {0, 0.1}) on the CLI's thread pool, plus 32 closed-form
    cells.  One call is one pass."""

    name = "table1_fine"
    grid = ("3200", "1600")
    merton_tol = 5e-3  # max error against the series allowed by the gate
    mc_paths = 200_000

    def __init__(self, lp, seed, run_dir) -> None:
        super().__init__(lp, seed, run_dir)
        self.first: bytes | None = None  # the CSV of the first pass
        self.vg_cells: dict[float, list[tuple[float, float]]] = {}

    def _call(self, n: str, m: str) -> PassResult:
        path = self.fresh_dir() / "table1.csv"
        rc, dt, err = call_cli(
            self.lp, ["table1", "--grid-n", n, "--grid-m", m, "--output", str(path)]
        )
        res = PassResult(wall_s=dt, attempted=1, out_dir=path.parent)
        if rc == 0:
            res.jobs_ms.append(1e3 * dt)
            res.solves = 4
        elif rc == EXIT_NUMERICAL:
            res.refused = 1
        else:
            res.errors.append(f"table1 exited {rc}: {err.strip()[-300:]}")
        return res

    def warm_up(self) -> PassResult:
        res = self._call("400", "200")
        shutil.rmtree(res.out_dir)
        return res

    def run_pass(self) -> PassResult:
        return self._call(*self.grid)

    def check_pass(self, res: PassResult) -> None:
        path = res.out_dir / "table1.csv"
        if not res.errors and not res.refused:
            data = path.read_bytes()
            if self.first is None:
                self.first = data
                res.errors += self._check_table(path)
            elif data != self.first:
                res.errors.append("table1 CSV differs between passes of one run")
        shutil.rmtree(res.out_dir)

    def _check_table(self, path: Path) -> list[str]:
        lp, errors = self.lp, []
        cols = read_columns(path)
        spots = cols["S"]
        base = lp.bs.OptionSpec(strike=100.0, expiry=1.0, rate=0.0, sigma=0.23, kind="put")
        for s, pay in zip(spots, cols["payoff"]):
            if not close(pay, max(100.0 - s, 0.0)):
                errors.append(f"payoff cell at S={s:g} reads {pay}")
        merton = lp.levy.Merton(lam=0.1, m=-0.2, delta=0.15)
        for r in (0.0, 0.1):
            spec = dataclasses.replace(base, rate=r)
            for sigma in (0.12, 0.23):
                ref = lp.bs.bs_price(dataclasses.replace(spec, sigma=sigma), np.array(spots))
                for s, got, want in zip(spots, cols[f"bs_sigma{sigma:g}_r{r:g}"], ref):
                    if not close(got, float(want)):
                        errors.append(f"bs cell sigma={sigma:g} r={r:g} S={s:g}: {got} != {want}")
            for s, got in zip(spots, cols[f"merton_r{r:g}"]):
                self.oracle_errors.append(abs(got - lp.oracle.merton_series_price(spec, merton, s)))
        worst = max(self.oracle_errors)
        if not worst <= self.merton_tol:
            errors.append(f"merton cells are {worst:.3g} off the series (gate {self.merton_tol})")
        self.vg_cells = {r: list(zip(spots, cols[f"vg_r{r:g}"])) for r in (0.0, 0.1)}
        return errors

    def final_checks(self) -> list[str]:
        """VG cells against seeded Monte Carlo, within 4 standard errors."""
        if self.first is None:
            return ["no table1 pass completed"]
        lp, errors = self.lp, []
        vg = lp.levy.VarianceGamma.from_bm_params(theta=-0.43, kappa=0.27, sigma_vg=0.23)
        mc = lp.oracle.McConfig(n_paths=self.mc_paths, seed=self.seed)
        for r, cells in self.vg_cells.items():
            spec = lp.bs.OptionSpec(strike=100.0, expiry=1.0, rate=r, sigma=0.23, kind="put")
            for s, got in cells:
                est = lp.oracle.mc_price(spec, vg, s, mc)
                if abs(got - est.price) > 4.0 * est.stderr:
                    errors.append(
                        f"vg cell r={r:g} S={s:g}: {got} vs Monte Carlo "
                        f"{est.price:.4f} +- {est.stderr:.4f}"
                    )
        return errors


# ---------------------------------------------------------------------------
# american_strip

# Families of the strip, as CLI model objects.
AMERICAN_MODELS = {
    "merton": {"type": "merton", "lam": 0.1, "m": -0.2, "delta": 0.15},
    "kou": {"type": "kou", "lam": 0.1, "theta": 0.5, "lam_plus": 3.0, "lam_minus": 2.0},
    "vg": {"type": "vg", "theta": -0.43, "kappa": 0.27, "sigma_vg": 0.23},
    "nig": {"type": "nig", "a": -1.0, "b": 5.0, "c": 1.0},
    "cgmy_y0.5": {"type": "cgmy", "c": 1.0, "g": 6.0, "m": 8.0, "y": 0.5},
    "cgmy_y1.5": {"type": "cgmy", "c": 1.0, "g": 6.0, "m": 8.0, "y": 1.5},
}
AMERICAN_EXPIRIES = (0.25, 0.5, 1.0, 2.0)
AMERICAN_SIGMAS = (0.15, 0.3)
AMERICAN_RATES = (0.0, 0.05, 0.1)
AMERICAN_N_TIME = 200  # the CLI's default grid is 400 x 200


class AmericanStrip(Workload):
    """144 `levypide price` calls in a closed loop from one client, each one
    American put on the default grid with one rate scenario and seven spots,
    writing a table and an exercise boundary.  The seed shuffles the call
    order and places the spots in [85, 115], one in each seventh."""

    name = "american_strip"
    # Gate on the r = 0 Merton calls' error against the series: about twice
    # the worst seen at the default 400 x 200 grid (0.028 over 40 seeds).
    merton_tol = 0.05

    def __init__(self, lp, seed, run_dir) -> None:
        super().__init__(lp, seed, run_dir)
        rng = np.random.default_rng(seed)
        jobs = list(
            itertools.product(AMERICAN_MODELS, AMERICAN_EXPIRIES, AMERICAN_SIGMAS, AMERICAN_RATES)
        )
        self.jobs = []
        for i in rng.permutation(len(jobs)):
            family, expiry, sigma, rate = jobs[i]
            spots = 85.0 + 30.0 * (np.arange(7) + rng.uniform(0.0, 1.0, 7)) / 7.0
            self.jobs.append((family, expiry, sigma, rate, [round(float(s), 4) for s in spots]))
        # Outputs of the first checked pass, by the index of a call that succeeded.
        self.first: dict[int, tuple[bytes, bytes]] | None = None

    def _config(self, job, out_dir: Path, i: int) -> Path:
        family, expiry, sigma, rate, spots = job
        cfg = {
            "option": {"kind": "put", "strike": 100.0, "expiry": expiry, "sigma": sigma},
            "model": AMERICAN_MODELS[family],
            "style": "american",
            "outputs": [
                {"kind": "table", "path": str(out_dir / f"table{i}.csv")},
                {"kind": "boundary", "path": str(out_dir / f"boundary{i}.csv")},
            ],
            "scenarios": [{"rate": rate, "spots": spots}],
        }
        path = out_dir / f"config{i}.json"
        path.write_text(json.dumps(cfg))
        return path

    def _run(self, jobs) -> PassResult:
        out_dir = self.fresh_dir()
        configs = [self._config(job, out_dir, i) for i, job in enumerate(jobs)]
        res = PassResult(out_dir=out_dir, payload=set())
        for i, cfg in enumerate(configs):
            rc, dt, err = call_cli(self.lp, ["price", "--config", str(cfg)])
            res.wall_s += dt
            res.attempted += 1
            if rc == 0:
                res.jobs_ms.append(1e3 * dt)
                res.solves += 1
                res.payload.add(i)
            elif rc == EXIT_NUMERICAL and "numerical failure" in err:
                res.refused += 1
            else:
                res.errors.append(f"price call {jobs[i][:4]} exited {rc}: {err.strip()[-300:]}")
        return res

    def warm_up(self) -> PassResult:
        firsts = {job[0]: job for job in reversed(self.jobs)}
        res = self._run(list(firsts.values()))
        shutil.rmtree(res.out_dir)
        return res

    def run_pass(self) -> PassResult:
        return self._run(self.jobs)

    def check_pass(self, res: PassResult) -> None:
        out_dir, succeeded = res.out_dir, res.payload
        first_pass = self.first is None
        if first_pass:
            self.first = {}
        elif succeeded != set(self.first):
            res.errors.append("a different set of calls succeeded than in the first pass")
        for i in sorted(succeeded):
            job = self.jobs[i]
            table, boundary = out_dir / f"table{i}.csv", out_dir / f"boundary{i}.csv"
            if not (table.exists() and boundary.exists()):
                res.errors.append(f"call {job[:4]} wrote no table or boundary")
                continue
            data = (table.read_bytes(), boundary.read_bytes())
            if first_pass:
                self.first[i] = data
                res.errors += self._check_outputs(job, table, boundary)
                if job[0] == "merton" and job[3] == 0.0:
                    errs = self._series_errors(job, table)
                    self.oracle_errors += errs
                    if max(errs) > self.merton_tol:
                        res.errors.append(
                            f"call {job[:4]}: {max(errs):.3g} off the Merton series "
                            f"(gate {self.merton_tol})"
                        )
            elif data != self.first.get(i):
                res.errors.append(f"outputs of call {job[:4]} differ between passes")
        shutil.rmtree(out_dir)

    def _check_outputs(self, job, table: Path, boundary: Path) -> list[str]:
        """Prices finite, >= 0 and non-increasing in spot; one boundary row per
        time level, each finite or NaN and at most the strike."""
        cols = read_columns(table)
        pairs = sorted(zip(cols["S"], cols[f"V_r{job[3]:g}"]))
        prices = np.array([v for _, v in pairs])
        errors = []
        if len(prices) != len(job[4]):
            errors.append(f"call {job[:4]}: {len(prices)} prices for {len(job[4])} spots")
        if not (np.all(np.isfinite(prices)) and np.all(prices >= 0.0)):
            errors.append(f"call {job[:4]}: price not finite or negative: {prices}")
        if np.any(np.diff(prices) > 0.0):
            errors.append(f"call {job[:4]}: price increases with spot: {prices}")
        s_f = np.array(read_columns(boundary)["s_f"])
        finite = s_f[np.isfinite(s_f)]
        if len(s_f) != AMERICAN_N_TIME + 1 or np.any(np.isinf(s_f)) or np.any(finite > 100.0):
            errors.append(f"call {job[:4]}: malformed exercise boundary")
        return errors

    def _series_errors(self, job, table: Path) -> list[float]:
        """At r = 0 early exercise of a put is never optimal, so the American
        price equals the European one, which the Merton series gives."""
        lp = self.lp
        _, expiry, sigma, _, _ = job
        spec = lp.bs.OptionSpec(strike=100.0, expiry=expiry, rate=0.0, sigma=sigma, kind="put")
        m = AMERICAN_MODELS["merton"]
        model = lp.levy.Merton(lam=m["lam"], m=m["m"], delta=m["delta"])
        cols = read_columns(table)
        return [
            abs(v - lp.oracle.merton_series_price(spec, model, s))
            for s, v in zip(cols["S"], cols["V_r0"])
        ]


# ---------------------------------------------------------------------------
# merton_ladder


class MertonLadder(Workload):
    """A refinement ladder for a European put under Merton(0.1, -0.2, 0.15)
    at r = 0.1, sigma = 0.23, checked against the series at 10 spots in
    [80, 125]; the same ladder with no jumps against Black-Scholes; then a
    seeded Monte Carlo cross-check.  Each ladder stops at the first rung
    whose max error is within the tolerance."""

    name = "merton_ladder"
    rungs = (200, 400, 800, 1600, 3200)
    tol = 1e-3
    mc_paths = 400_000

    def __init__(self, lp, seed, run_dir) -> None:
        super().__init__(lp, seed, run_dir)
        self.spec = lp.bs.OptionSpec(strike=100.0, expiry=1.0, rate=0.1, sigma=0.23, kind="put")
        self.model = lp.levy.Merton(lam=0.1, m=-0.2, delta=0.15)
        self.spots = np.linspace(80.0, 125.0, 10)
        self.stops: set[tuple] = set()

    def _ladder(self, model, ref: np.ndarray, rungs, res: PassResult) -> tuple[int, float, np.ndarray]:
        """Climb the rungs; return (stopping N, its solve + price_at seconds,
        its errors), with N = 0 when no rung meets the tolerance."""
        pide = self.lp.pide
        for n in rungs:
            grid = pide.GridSpec(n_space=n, n_time=n // 2)
            t0 = time.perf_counter()
            try:
                surface = pide.solve_european(self.spec, model, grid)
                prices = pide.price_at(surface, 0.0, self.spots)
            except (ValueError, ArithmeticError, RuntimeError) as exc:
                res.wall_s += time.perf_counter() - t0
                res.attempted += 1
                res.refused += 1
                print(f"# ladder rung {n} failed: {exc}")
                return 0, math.nan, np.full(len(ref), math.nan)
            dt = time.perf_counter() - t0
            res.wall_s += dt
            res.attempted += 1
            res.solves += 1
            errs = np.abs(prices - ref)
            if errs.max() <= self.tol:
                return n, dt, errs
        return 0, math.nan, errs

    def _run(self, rungs, mc_paths: int) -> PassResult:
        lp, res = self.lp, PassResult()
        t0 = time.perf_counter()
        series = np.array(
            [lp.oracle.merton_series_price(self.spec, self.model, s) for s in self.spots]
        )
        closed = np.asarray(lp.bs.bs_price(self.spec, self.spots))
        res.wall_s += time.perf_counter() - t0
        n, t_tol, err = self._ladder(self.model, series, rungs, res)
        n_bs, t_tol_bs, err_bs = self._ladder(lp.levy.NoJumps(), closed, rungs, res)
        t0 = time.perf_counter()
        mc = lp.oracle.mc_price(
            self.spec, self.model, 100.0, lp.oracle.McConfig(n_paths=mc_paths, seed=self.seed)
        )
        res.wall_s += time.perf_counter() - t0
        res.jobs_ms.append(1e3 * res.wall_s)
        res.extra = {
            "time_to_tol_s": t_tol,
            "time_to_tol_bs_s": t_tol_bs,
            "stop_n": n,
            "stop_n_bs": n_bs,
            "err": float(err.max()),
            "err_bs": float(err_bs.max()),
        }
        res.payload = (mc, float(series[np.argmin(np.abs(self.spots - 100.0))]), err.tolist())
        return res

    def warm_up(self) -> PassResult:
        return self._run(self.rungs[:2], 1000)

    def run_pass(self) -> PassResult:
        return self._run(self.rungs, self.mc_paths)

    def check_pass(self, res: PassResult) -> None:
        x = res.extra
        for label, n, err in (("merton", x["stop_n"], x["err"]), ("no-jump", x["stop_n_bs"], x["err_bs"])):
            if not n:
                res.errors.append(
                    f"{label} ladder did not reach {self.tol:g} by N = {self.rungs[-1]} "
                    f"(last max error {err:.3g})"
                )
        self.stops.add((x["stop_n"], x["stop_n_bs"]))
        if len(self.stops) > 1:
            res.errors.append(f"stopping rungs differ between passes: {sorted(self.stops)}")
        mc, series_atm, self.oracle_errors = res.payload
        if abs(mc.price - series_atm) > 4.0 * mc.stderr:
            res.errors.append(
                f"Monte Carlo {mc.price:.4f} +- {mc.stderr:.4f} vs series {series_atm:.4f} at S=100"
            )


WORKLOADS = {w.name: w for w in (Table1Fine, AmericanStrip, MertonLadder)}
