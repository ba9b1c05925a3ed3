"""Acceptance gate: the nine workhorse checks, one printed verdict line each.

Every check runs at its stated tolerance and asserts; nothing is skipped or
weakened.  Three verdicts are expected to come out red on the benchmark
configuration, and the failures are genuine, not bugs in this package:

* checks 1 and 2: the jump-model columns of the reference table cannot be
  reproduced within the stated bands by any of the three independent engines
  here (finite differences, Poisson mixture series, Monte Carlo), which agree
  with each other to well inside those bands.  See README for the numbers.
* check 7: with the in-the-money-weighted penalty, the obstacle shortfall at
  the deep in-the-money edge scales like eps * r * K * e^{|x|}, so the
  2 eps K band and the complementarity bound are unattainable at r = 0.1 on
  a half-width-4 grid no matter how small eps is.  The eps-shrink clause and
  European dominance hold, and at r = 0 the whole suite passes to roundoff.
"""
import math
import time
import warnings

import numpy as np
import pytest

from conftest import (
    ALL_JUMP_MODELS,
    BENCH_MERTON,
    BENCH_VG,
    RATES,
    STRIKE,
    TABLE_SPOTS,
    bench_spec,
    stepped_jump_term,
)
from levypide.american import PenaltyConfig, lcp_residual, solve_american_penalized
from levypide.bs import bs_price, payoff
from levypide.cli import main
from levypide.levy import (
    NoJumps,
    finite_activity,
    integrability_check,
    shape_witness,
    structural_condition_check,
)
from levypide.oracle import McConfig, mc_price, merton_series_price
from levypide.pide import GridSpec, build_grid, solve_european

# Reference put-price table (strike 100, expiry 1): spot, closed-form column
# at the recalibrated sigma = 0.12, the two jump-model columns at sigma = 0.23,
# and the payoff column.  Values frozen verbatim from the benchmark table.
BS12_TABLE = {
    0.0: (15.2547, 12.2484, 9.42895, 6.90902, 4.78444, 3.1099, 1.88555, 1.0604),
    0.1: (7.35166, 5.24145, 3.51944, 2.21106, 1.29196, 0.69843, 0.34773, 0.15881),
}
VG_TABLE = {
    0.0: (19.2687, 17.2948, 15.428, 13.674, 12.0372, 10.52, 9.12343, 7.84623),
    0.1: (14.9855, 13.3899, 11.8822, 10.4691, 9.15576, 7.94499, 6.83762, 4.51403),
}
MERTON_TABLE = {
    0.0: (17.1692, 14.8335, 12.6423, 10.6201, 8.78655, 7.155, 5.73137, 5.83246),
    0.1: (12.9056, 10.9901, 9.21922, 7.61307, 6.18483, 4.94044, 3.87864, 2.99166),
}
PAYOFF_TABLE = (14.7856, 11.308, 7.68837, 3.92106, 0.0, 0.0, 0.0, 0.0)

FLAGGED_VG_CELL = (112.75, 0.1)  # reported, never asserted


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def vg_surfaces():
    """Subordinated-jump solves under both diffusion-volatility conventions."""
    grid = GridSpec()
    return {
        (sig, r): solve_european(bench_spec(rate=r, sigma=sig), BENCH_VG, grid)
        for sig in (0.23, 0.12)
        for r in RATES
    }


@pytest.fixture(scope="module")
def american_runs():
    """Penalized solves at both rates and both penalty strengths."""
    grid = GridSpec()
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for r in RATES:
            for eps in (1e-2, 1e-3):
                out[(r, eps)] = solve_american_penalized(
                    bench_spec(rate=r), BENCH_MERTON, grid, PenaltyConfig(epsilon=eps)
                )
    return out


def max_obstacle_shortfall(surface) -> float:
    """max over all nodes of (payoff - price)^+ in calendar units."""
    spec = surface.spec
    phi = payoff(spec, spec.strike * np.exp(surface.xs))
    worst = 0.0
    for k, tau in enumerate(surface.taus):
        V = math.exp(-spec.rate * tau) * surface.u[k]
        worst = max(worst, float(np.max(phi - V)))
    return worst


def test_criterion_1_merton_column(merton_surfaces):
    t0 = time.perf_counter()
    fresh = solve_european(bench_spec(rate=0.1), BENCH_MERTON, GridSpec())
    solve_seconds = time.perf_counter() - t0

    worst_cell, worst_err = None, 0.0
    cells_ok = True
    for r in RATES:
        surf = merton_surfaces[r]
        for s, expect in zip(TABLE_SPOTS, MERTON_TABLE[r]):
            err = surf.price_at(0.0, s) - expect
            if abs(err) > abs(worst_err):
                worst_cell, worst_err = (s, r), err
            if abs(err) > 0.15:
                cells_ok = False

    series_gap = max(
        abs(
            merton_surfaces[r].price_at(0.0, s)
            - merton_series_price(bench_spec(rate=r), BENCH_MERTON, s)
        )
        for r in RATES
        for s in TABLE_SPOTS
    )
    series_ok = series_gap <= 0.1
    runtime_ok = solve_seconds < 30.0
    del fresh

    verdict(
        1,
        cells_ok and series_ok and runtime_ok,
        f"table cells within 0.15: {cells_ok} (worst {worst_err:+.3f} at "
        f"S={worst_cell[0]:g}, r={worst_cell[1]:g}); solver-vs-series gap "
        f"{series_gap:.3f} <= 0.1: {series_ok}; solve took {solve_seconds:.2f}s",
    )


def test_criterion_2_vg_column(vg_surfaces):
    per_convention = {}
    flagged = {}
    for sig in (0.23, 0.12):
        worst = 0.0
        for r in RATES:
            surf = vg_surfaces[(sig, r)]
            for s, expect in zip(TABLE_SPOTS, VG_TABLE[r]):
                err = surf.price_at(0.0, s) - expect
                if (s, r) == FLAGGED_VG_CELL:
                    flagged[sig] = surf.price_at(0.0, s)
                    continue
                worst = max(worst, abs(err))
        per_convention[sig] = worst
    best_sig = min(per_convention, key=per_convention.get)
    ok = per_convention[best_sig] <= 0.2
    verdict(
        2,
        ok,
        "max |error| excluding the flagged cell: "
        f"{per_convention[0.23]:.3f} with the table diffusion vol, "
        f"{per_convention[0.12]:.3f} with the recalibrated one (best "
        f"{per_convention[best_sig]:.3f} <= 0.2: {ok}); flagged cell "
        f"S={FLAGGED_VG_CELL[0]:g}, r={FLAGGED_VG_CELL[1]:g} prices at "
        f"{flagged[0.23]:.4f} / {flagged[0.12]:.4f} vs tabulated "
        f"{VG_TABLE[0.1][-1]:.5f}",
    )


def test_criterion_3_bs_column(tmp_path):
    worst = 0.0
    for r in RATES:
        spec = bench_spec(rate=r, sigma=0.12)
        for s, expect in zip(TABLE_SPOTS, BS12_TABLE[r]):
            worst = max(worst, abs(float(bs_price(spec, s)) - expect))
    cells_ok = worst <= 5e-3

    out = tmp_path / "table1.csv"
    code = main(["table1", "--output", str(out)])
    header = out.read_text().split("\n")[0]
    emits_both = (
        code == 0
        and all(f"bs_sigma0.12_r{r:g}" in header for r in RATES)
        and all(f"bs_sigma0.23_r{r:g}" in header for r in RATES)
    )
    verdict(
        3,
        cells_ok and emits_both,
        f"closed form at sigma=0.12 vs 16 cells, max |error| {worst:.2e} <= 5e-3: "
        f"{cells_ok}; table1 emits both volatility conventions: {emits_both}",
    )


def test_criterion_4_payoff_column():
    xs, _, u0 = build_grid(bench_spec(), GridSpec())
    worst = 0.0
    for s, expect in zip(TABLE_SPOTS, PAYOFF_TABLE):
        i = int(np.argmin(np.abs(xs - math.log(s / STRIKE))))
        worst = max(worst, abs(u0[i] - expect))
    ok = worst < 5e-5
    verdict(4, ok, f"8 payoff nodes vs table, max |error| {worst:.2e} < 5e-5: {ok}")


def test_criterion_5_zero_measure_consistency():
    S = np.linspace(80.0, 125.0, 10)
    base_err, fine_err = 0.0, 0.0
    for r in RATES:
        spec = bench_spec(rate=r)
        ref = bs_price(spec, S)
        base = solve_european(spec, NoJumps(), GridSpec())
        fine = solve_european(spec, NoJumps(), GridSpec(n_space=800, n_time=400))
        base_err = max(base_err, float(np.max(np.abs(base.price_at(0.0, S) - ref))))
        fine_err = max(fine_err, float(np.max(np.abs(fine.price_at(0.0, S) - ref))))
    ratio = base_err / fine_err
    ok = base_err <= 0.02 * STRIKE and ratio >= 1.8
    verdict(
        5,
        ok,
        f"nu=0 max |solver - closed form| {base_err:.4f} <= {0.02 * STRIKE:g}; "
        f"halving both steps shrinks it {ratio:.2f}x >= 1.8x",
    )


def test_criterion_6_discrete_annihilation():
    # the jump operator as the step evaluates it: the explicit kernel less the
    # drift stencil
    worst_name, worst = None, 0.0
    for name, model in sorted(ALL_JUMP_MODELS.items()):
        sup = float(np.max(np.abs(stepped_jump_term(model, GridSpec(), np.exp))))
        if sup > worst:
            worst_name, worst = name, sup
    ok = worst <= 1e-6 * STRIKE
    verdict(
        6,
        ok,
        f"sup |operator applied to e^x| = {worst:.2e} (worst family: {worst_name}) "
        f"<= {1e-6 * STRIKE:g}",
    )


def test_criterion_7_american_suite(merton_surfaces, american_runs):
    eps = 1e-3
    clauses = {}
    details = []
    for r in RATES:
        am = american_runs[(r, eps)]
        eu = merton_surfaces[r]
        dominance = float(np.min(am.u - eu.u))
        clauses[f"dominance r={r:g}"] = dominance >= -1e-8

        shortfall = max_obstacle_shortfall(am)
        clauses[f"obstacle r={r:g}"] = shortfall <= 2.0 * eps * STRIKE

        loose = max_obstacle_shortfall(american_runs[(r, 1e-2)])
        # vacuously satisfied when the loose penalty already sits on the obstacle
        shrink_ok = loose == 0.0 or loose / max(shortfall, 1e-300) >= 5.0
        clauses[f"eps-shrink r={r:g}"] = shrink_ok

        rep = lcp_residual(am, bench_spec(rate=r), BENCH_MERTON, GridSpec())
        # roundoff floor: recomputing the residuals of an exactly-solved step
        # leaves ~1e-12 noise on the u ~ 100 scale, so grant that much before
        # comparing two quantities that are both analytically zero at r = 0
        comp_bound = rep.pde_residual_sup * 2.0 * eps * STRIKE + 1e-9
        clauses[f"complementarity r={r:g}"] = rep.max_complementarity <= comp_bound

        details.append(
            f"r={r:g}: min(am-eu) {dominance:.2g}, shortfall {shortfall:.4f} vs "
            f"{2.0 * eps * STRIKE:g}, shrink {loose:.4f}->{shortfall:.4f}, "
            f"complementarity {rep.max_complementarity:.4f} vs {comp_bound:.4f}"
        )
    for name, ok_clause in clauses.items():
        print(f"  clause {name}: {'PASS' if ok_clause else 'FAIL'}")
    verdict(7, all(clauses.values()), "; ".join(details))


def test_criterion_8_oracle_triangle(merton_surfaces):
    spec = bench_spec(rate=0.0)
    surf = merton_surfaces[0.0]
    worst_gap, worst_tol = 0.0, 0.15
    lines = []
    for s in (85.2144, 100.0, 112.75):
        p = surf.price_at(0.0, s)
        ser = merton_series_price(spec, BENCH_MERTON, s)
        mc = mc_price(spec, BENCH_MERTON, s, McConfig(n_paths=100_000, seed=0))
        tol = max(0.15, 3.0 * mc.stderr)
        gap = max(abs(p - ser), abs(p - mc.price), abs(ser - mc.price))
        if gap > worst_gap:
            worst_gap, worst_tol = gap, tol
        lines.append(f"S={s:g}: gap {gap:.4f} <= {tol:.4f}")
    ok = worst_gap <= worst_tol
    verdict(8, ok, "; ".join(lines))


def test_criterion_9_checks_suite():
    # classification derived by hand from the closed-form densities
    expected = {
        "merton": dict(finite=True, alpha=0.0, admissible=True, integrable=True, structural=True),
        "kou": dict(finite=True, alpha=0.0, admissible=True, integrable=True, structural=True),
        "vg": dict(finite=False, alpha=1.0, admissible=True, integrable=True, structural=False),
        "nig": dict(finite=False, alpha=2.0, admissible=True, integrable=True, structural=False),
        "cgmy": dict(finite=False, alpha=1.5, admissible=True, integrable=True, structural=False),
    }
    got = {}
    for name, model in ALL_JUMP_MODELS.items():
        w = shape_witness(model)
        got[name] = dict(
            finite=finite_activity(model),
            alpha=w.alpha,
            admissible=w.admissible,
            integrable=integrability_check(model).passed,
            structural=structural_condition_check(model, 0.1).passed,
        )
    mismatches = [
        f"{name}.{key}: {got[name][key]!r} != {expected[name][key]!r}"
        for name in expected
        for key in expected[name]
        if got[name][key] != expected[name][key]
    ]
    ok = not mismatches
    verdict(
        9,
        ok,
        "boolean classification of all five families matches exactly"
        if ok
        else "; ".join(mismatches),
    )
