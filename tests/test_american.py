"""Penalized American solve: ordering, obstacle bounds, boundary, residuals."""
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from conftest import (
    BENCH_MERTON,
    BENCH_VG,
    STRIKE,
    assert_last_level_surface,
    bench_spec,
    far_values,
)
from levypide.american import (
    LcpReport,
    PenaltyConfig,
    PicardError,
    exercise_asymptote,
    extract_boundary,
    lcp_residual,
    solve_american_penalized,
)
from levypide.bs import payoff
from levypide.levy import CGMY, Kou, NoJumps
from levypide.pide import (
    GridSpec,
    _implicit_solve,
    _march,
    assemble_operators,
    solve_european,
)


@pytest.fixture(scope="module")
def eps_sweep():
    """Lognormal-jump benchmark at r = 0.1 solved at two penalty strengths."""
    grid = GridSpec()
    spec = bench_spec(rate=0.1)
    return {
        eps: solve_american_penalized(spec, BENCH_MERTON, grid, PenaltyConfig(epsilon=eps))
        for eps in (1e-2, 1e-3)
    }


def reference_solve(spec, model, grid, pcfg):
    """The penalized solve with every sweep run until two iterates agree:
    the loop whose repeat of an unchanged active set the solver skips."""
    ops = assemble_operators(spec, model, grid, boundary=exercise_asymptote(spec))
    xs = ops.xs
    tol = pcfg.picard_tol if pcfg.picard_tol is not None else 1e-8 * spec.strike
    w0 = payoff(spec, spec.strike * np.exp(xs))
    weight_int = np.exp(np.minimum(xs[1:-1], 0.0))

    def sweep(step, tau, rhs, u_next, u_prev):
        # step: the SBDF2 step's operators or the start substep's
        w = math.exp(spec.rate * tau) * w0
        u_iter = u_prev
        for _ in range(pcfg.max_picard):
            active = (u_iter[1:-1] < w[1:-1]).astype(float)
            pen = (step.dt / pcfg.epsilon) * weight_int * active
            u_next[1:-1] = _implicit_solve(step, rhs + pen * w[1:-1], extra_diag=pen)
            diff = float(np.max(np.abs(u_next - u_iter)))
            if diff < tol:
                return
            u_iter = u_next.copy()
        worst = int(np.argmax(np.abs(u_next - u_prev)))
        raise PicardError(
            f"tau = {tau:.6g}", node=worst, x=float(xs[worst]), gap=diff,
            iterations=pcfg.max_picard,
        )

    ops.sweep = ops.start.sweep = sweep
    [surface] = _march([ops])
    return surface


def obstacle_violation(surface):
    spec = surface.spec
    w0 = payoff(spec, spec.strike * np.exp(surface.xs))
    worst = 0.0
    for k, tau in enumerate(surface.taus):
        w = math.exp(spec.rate * tau) * w0
        worst = max(worst, float(np.max(w - surface.u[k])))
    return worst


class TestPenaltyConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"epsilon": 0.0},
            {"max_picard": 0},
            {"picard_tol": 0.0},
            {"epsilon": math.nan},
            {"max_picard": math.nan},
            {"max_picard": 2.5},
            {"picard_tol": math.inf},
        ],
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises(ValueError):
            PenaltyConfig(**kw)


class TestExerciseAsymptote:
    def test_branches(self):
        fn = far_values(exercise_asymptote(bench_spec(rate=0.1)), 0.1)
        out = fn(np.array([-2.0, -0.3, 0.0, 1.0]), 0.5)
        grow = math.exp(0.05)
        assert out[0] == pytest.approx(100.0 * grow * (1.0 - math.exp(-2.0)))
        assert out[1] == pytest.approx(100.0 * grow * (1.0 - math.exp(-0.3)))
        assert out[2] == 0.0 and out[3] == 0.0


class TestSolveAmerican:
    def test_no_exercise_premium_without_rate_or_up_moves(self):
        # r = 0 and downward-only jumps: holding dominates exercising, so the
        # penalty never activates and the two solves agree exactly
        spec = bench_spec(rate=0.0)
        model = Kou(lam=0.1, theta=0.0, lam_plus=3.0, lam_minus=2.0)
        grid = GridSpec()
        am = solve_american_penalized(spec, model, grid)
        eu = solve_european(spec, model, grid)
        assert np.max(np.abs(am.u - eu.u)) <= 1e-9

    def test_dominates_european_same_grid(self, eps_sweep):
        eu = solve_european(bench_spec(rate=0.1), BENCH_MERTON, GridSpec())
        assert float(np.min(eps_sweep[1e-3].u - eu.u)) >= -1e-8

    def test_early_exercise_premium_for_plain_diffusion(self):
        spec = bench_spec(rate=0.1, sigma=0.12)
        grid = GridSpec()
        am = solve_american_penalized(spec, NoJumps(), grid)
        eu = solve_european(spec, NoJumps(), grid)
        atm = am.price_at(0.0, 100.0)
        assert atm >= 1.29196  # European closed-form floor
        assert 1.8 < atm < 2.6
        assert np.max(am.u - eu.u) > 0.5

    def test_tightening_the_penalty_never_lowers_the_price(self, eps_sweep):
        assert float(np.min(eps_sweep[1e-3].u - eps_sweep[1e-2].u)) >= -1e-8

    def test_obstacle_shortfall_shrinks_with_eps(self, eps_sweep):
        v_loose = obstacle_violation(eps_sweep[1e-2])
        v_tight = obstacle_violation(eps_sweep[1e-3])
        assert v_loose / v_tight >= 5.0

    def test_put_only(self):
        with pytest.raises(ValueError, match="put"):
            solve_american_penalized(bench_spec(kind="call"), NoJumps(), GridSpec())

    def test_warns_when_structural_condition_fails(self):
        # zero rate cannot absorb the upward-jump budget of the lognormal bench
        with pytest.warns(RuntimeWarning, match="structural condition"):
            solve_american_penalized(bench_spec(rate=0.0), BENCH_MERTON, GridSpec())

    def test_refuses_a_non_integrable_measure_before_warning(self):
        # alpha = 3.5 fails both checks; the refusal comes first, with no warning
        heavy = CGMY(c=0.5, g=6.0, m=8.0, y=2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="integrability check: singularity order"):
                solve_american_penalized(bench_spec(rate=0.1), heavy, GridSpec())

    def test_silent_when_structural_condition_holds(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_american_penalized(bench_spec(rate=0.1), BENCH_MERTON, GridSpec())

    def test_reports_stalled_iteration(self):
        cfg = PenaltyConfig(max_picard=1, picard_tol=1e-15)
        with pytest.raises(PicardError) as exc:
            solve_american_penalized(bench_spec(rate=0.1), BENCH_MERTON, GridSpec(), cfg)
        err = exc.value
        assert err.iterations == 1
        assert err.gap > 1e-15
        assert -4.0 <= err.x <= 4.0
        assert "sweeps" in str(err)
        # the first start substep stalls, so the message quotes its tau, its
        # step size dt / 4 and its large-jump stiffness dt*W
        ops = assemble_operators(bench_spec(rate=0.1), BENCH_MERTON, GridSpec()).start
        stiffness = ops.dt * ops.integral.total_weight
        assert stiffness > 0.0
        assert f"at tau = {ops.dt:.6g} " in str(err)
        assert f"dt = {ops.dt:.4g}, dt*W = {stiffness:.4g})" in str(err)

    def test_a_stalled_iteration_survives_pickling(self):
        # a march in a pool's child process returns its error by pickle
        cfg = PenaltyConfig(max_picard=1, picard_tol=1e-15)
        with pytest.raises(PicardError) as exc:
            solve_american_penalized(bench_spec(rate=0.1), BENCH_MERTON, GridSpec(), cfg)
        err = exc.value
        copy = pickle.loads(pickle.dumps(err))
        assert type(copy) is PicardError and str(copy) == str(err)
        assert (copy.node, copy.x, copy.gap, copy.iterations) == (
            err.node, err.x, err.gap, err.iterations
        )

    # frozen default-grid prices: a change to the step, the penalty sweep or
    # the boundary data shows here first
    @pytest.mark.parametrize(
        "model, spot, price",
        [
            (BENCH_MERTON, 85.2144, 14.960107736952082),
            (BENCH_MERTON, 100.0, 6.270858594062098),
            (BENCH_VG, 85.2144, 18.239603843481785),
            (BENCH_VG, 100.0, 11.47099539166608),
        ],
        ids=["merton-85.2144", "merton-100", "vg-85.2144", "vg-100"],
    )
    # the VG measure's upward-jump budget exceeds r = 0.1; that warning has its own test
    @pytest.mark.filterwarnings("ignore:structural condition:RuntimeWarning")
    def test_frozen_prices(self, model, spot, price):
        am = solve_american_penalized(bench_spec(rate=0.1), model, GridSpec())
        assert am.price_at(0.0, spot) == pytest.approx(price, rel=1e-10, abs=0.0)


# the VG measure's upward-jump budget exceeds both rates; that warning has its own test
@pytest.mark.filterwarnings("ignore:structural condition:RuntimeWarning")
class TestSweepStoppingRule:
    # at r = 0 most sweeps meet an empty active set and back-substitute
    # through the factored band; the reference eliminates band + 0 afresh
    @pytest.mark.parametrize(
        "grid", [GridSpec(), GridSpec(n_space=1600)], ids=["direct", "fft"]
    )
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.1])
    @pytest.mark.parametrize("model", [BENCH_MERTON, BENCH_VG], ids=["merton", "vg"])
    def test_matches_the_full_sweep_bit_for_bit(self, model, rate, grid):
        spec = bench_spec(rate=rate)
        am = solve_american_penalized(spec, model, grid)
        ref = reference_solve(spec, model, grid, PenaltyConfig())
        assert am.u.tobytes() == ref.u.tobytes()

    # r = 0 stalls only at max_picard = 1: its active set stays empty, so a
    # second sweep repeats the first and both solves stop there
    @pytest.mark.parametrize(
        "rate, max_picard, stalls",
        [(0.1, 1, True), (0.1, 2, True), (0.0, 1, True), (0.0, 2, False)],
    )
    @pytest.mark.parametrize("model", [BENCH_MERTON, BENCH_VG], ids=["merton", "vg"])
    def test_stalls_where_the_full_sweep_stalls(self, model, rate, max_picard, stalls):
        spec = bench_spec(rate=rate)
        cfg = PenaltyConfig(max_picard=max_picard, picard_tol=1e-12)
        if not stalls:
            am = solve_american_penalized(spec, model, GridSpec(), cfg)
            ref = reference_solve(spec, model, GridSpec(), cfg)
            assert am.u.tobytes() == ref.u.tobytes()
            return
        with pytest.raises(PicardError) as got:
            solve_american_penalized(spec, model, GridSpec(), cfg)
        with pytest.raises(PicardError) as ref:
            reference_solve(spec, model, GridSpec(), cfg)
        err, expect = got.value, ref.value
        assert f"at {expect} " in str(err)
        assert (err.node, err.x, err.gap, err.iterations) == (
            expect.node, expect.x, expect.gap, expect.iterations
        )


# the VG measure's upward-jump budget exceeds r = 0.1; that warning has its own test
@pytest.mark.filterwarnings("ignore:structural condition:RuntimeWarning")
class TestTwoLevelMarch:
    @pytest.mark.parametrize(
        "grid", [GridSpec(), GridSpec(n_space=1600)], ids=["direct", "fft"]
    )
    @pytest.mark.parametrize(
        "model", [NoJumps(), BENCH_MERTON, BENCH_VG], ids=["none", "merton", "vg"]
    )
    def test_keeps_the_full_surfaces_end_levels_bit_for_bit(self, model, grid):
        spec = bench_spec(rate=0.1)
        full = solve_american_penalized(spec, model, grid)
        two = solve_american_penalized(spec, model, grid, keep_levels=False)
        assert_last_level_surface(full, two)


class TestExerciseBoundary:
    def test_boundary_shape(self, eps_sweep):
        b = extract_boundary(eps_sweep[1e-3])
        assert b.s_f[0] == STRIKE  # at expiry every in-the-money node exercises
        assert not np.any(np.isnan(b.s_f))
        assert np.all(b.s_f > 0.0) and np.all(b.s_f <= STRIKE)
        assert np.all(np.diff(b.s_f) <= 1e-12)  # recedes as maturity grows
        assert b.s_f[-1] < 90.0

    def test_matches_a_per_level_scan(self, eps_sweep):
        am = eps_sweep[1e-3]
        u = am.u.copy()
        u[3] += 50.0  # lifts the level off the payoff: empty exercise region
        u[4] = np.nan
        surface = dataclasses.replace(am, u=u)
        b = extract_boundary(surface)

        spec = surface.spec
        tol_abs = 1e-6 * spec.strike
        below = surface.xs <= 0.0
        S = spec.strike * np.exp(surface.xs[below])
        ref = np.full(len(surface.taus), np.nan)
        for k, tau in enumerate(surface.taus):
            V = math.exp(-spec.rate * tau) * u[k][below]
            on_payoff = V <= spec.strike - S + tol_abs
            if np.any(on_payoff):
                ref[k] = S[on_payoff].max()
        assert np.isnan(b.s_f[3]) and np.isnan(b.s_f[4])
        assert b.s_f.tobytes() == ref.tobytes()

    def test_rejects_a_call_surface(self):
        eu = solve_european(bench_spec(kind="call"), NoJumps(), GridSpec(n_space=100, n_time=10))
        with pytest.raises(ValueError, match="put surfaces only"):
            extract_boundary(eu)

    def test_csv_round_trip(self, tmp_path, eps_sweep):
        b = extract_boundary(eps_sweep[1e-3])
        path = tmp_path / "boundary.csv"
        b.to_csv(str(path))
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "tau,s_f"
        assert len(rows) == len(b.taus) + 1
        tau0, s0 = rows[1].split(",")
        assert float(tau0) == 0.0 and float(s0) == STRIKE


class TestLcpResidual:
    def test_european_surface_solves_the_equation(self):
        eu = solve_european(bench_spec(rate=0.1, sigma=0.12), NoJumps(), GridSpec())
        rep = lcp_residual(eu)
        assert isinstance(rep, LcpReport)
        assert rep.pde_violation <= 1e-9
        assert rep.pde_residual_sup <= 1e-9

    # frozen reports: a change to the operators a surface carries or to the
    # residual's arithmetic shows here
    def test_european_surface_report(self):
        rep = lcp_residual(solve_european(bench_spec(rate=0.1), NoJumps(), GridSpec()))
        assert rep.obstacle_violation == pytest.approx(10.517284922751486, rel=1e-10)
        assert rep.pde_violation <= 1e-9
        assert rep.pde_residual_sup <= 1e-9
        assert rep.max_complementarity <= 1e-9

    def test_penalized_surface_report(self, eps_sweep):
        rep = lcp_residual(eps_sweep[1e-3])
        assert rep.max_complementarity == pytest.approx(5.450734745530359, rel=1e-10)
        assert rep.obstacle_violation == pytest.approx(0.5106177752054037, rel=1e-10)
        assert rep.max_ineq_violation == rep.obstacle_violation
        assert rep.pde_residual_sup == pytest.approx(11.049607438019184, rel=1e-10)
        assert rep.pde_violation <= 1e-9

    def test_penalized_surface_at_zero_rate(self):
        # with r = 0 the full complementarity system holds to roundoff
        with pytest.warns(RuntimeWarning):
            am = solve_american_penalized(bench_spec(rate=0.0), BENCH_MERTON, GridSpec())
        rep = lcp_residual(am)
        assert rep.obstacle_violation <= 1e-9
        assert rep.pde_violation <= 1e-9
        assert rep.max_complementarity <= 1e-9

    def test_rejects_a_two_level_surface(self):
        spec = bench_spec(rate=0.1)
        two = solve_american_penalized(spec, BENCH_MERTON, GridSpec(), keep_levels=False)
        with pytest.raises(ValueError, match="holds 2 levels, its grid has 201"):
            lcp_residual(two)

    def test_rejects_a_one_step_grid(self):
        eu = solve_european(bench_spec(rate=0.1), NoJumps(), GridSpec(n_time=1))
        with pytest.raises(ValueError, match="holds 2 levels, its grid has 2"):
            lcp_residual(eu)
