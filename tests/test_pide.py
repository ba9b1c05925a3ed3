"""The grid, the discrete jump operator, IMEX stepping, and the European solve."""
import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from conftest import (
    ALL_JUMP_MODELS,
    BENCH_MERTON,
    BENCH_VG,
    RATES,
    STRIKE,
    TABLE_SPOTS,
    bench_spec,
    grid_spots,
)
from levypide.american import exercise_asymptote
from levypide.bs import bs_price, payoff, u_bs
from levypide.levy import CGMY, NoJumps
from levypide.oracle import merton_series_price
from levypide.pide import (
    FarField,
    GridSpec,
    _implicit_solve,
    assemble_integral_operator,
    assemble_operators,
    build_grid,
    european_asymptote,
    solve_european,
    step_imex,
    surface_to_csv,
)

PAYOFF_TABLE = (14.7856, 11.308, 7.68837, 3.92106, 0.0, 0.0, 0.0, 0.0)

# J = 800 lattice offsets: above the cut-over, so the jump apply uses the FFT
FFT_GRID = GridSpec(n_space=1600)


class TestGridSpec:
    def test_defaults(self):
        grid = GridSpec()
        assert grid.dx == pytest.approx(0.02, rel=1e-14)
        assert grid.z_max == 4.0
        assert grid.delta == pytest.approx(grid.dx)

    def test_node_layout(self):
        grid = GridSpec()
        xs = grid.xs()
        assert xs.shape == (401,)
        assert xs[0] == -4.0 and xs[-1] == 4.0
        assert xs[200] == 0.0
        taus = grid.taus(1.0)
        assert taus.shape == (201,)
        assert taus[0] == 0.0 and taus[-1] == 1.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"half_width": 0.0},
            {"n_space": 3},
            {"n_space": 401},
            {"n_time": 0},
            {"delta": 0.2},
            {"z_max": 5.0},
            {"delta": 0.04, "z_max": 0.03},
            {"half_width": math.inf},
            {"half_width": math.nan},
            {"n_time": math.inf},
        ],
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises(ValueError):
            GridSpec(**kw)


class TestBuildGrid:
    def test_initial_data_is_transformed_payoff(self):
        spec = bench_spec(rate=0.1)
        xs, taus, u0 = build_grid(spec, GridSpec())
        assert np.array_equal(u0, payoff(spec, STRIKE * np.exp(xs)))
        assert u0[200] == 0.0
        assert taus.size == 201

    def test_reference_payoff_column(self):
        # the table spots are grid nodes (x = -0.16 ... 0.12 in steps of 0.04)
        xs, _, u0 = build_grid(bench_spec(), GridSpec())
        for s, expect in zip(TABLE_SPOTS, PAYOFF_TABLE):
            i = int(np.argmin(np.abs(xs - math.log(s / STRIKE))))
            # spots are 6-figure roundings of K e^x, so nodes sit within 5e-6
            assert abs(xs[i] - math.log(s / STRIKE)) < 5e-6
            assert u0[i] == pytest.approx(expect, abs=5e-5)


class TestEuropeanAsymptote:
    def test_put_branches(self):
        fn = european_asymptote(bench_spec(rate=0.1))
        x = np.array([-2.0, -0.5, 0.0, 1.5])
        out = fn(x, 0.3)
        grow = math.exp(0.1 * 0.3)
        assert out[0] == pytest.approx(100.0 - 100.0 * math.exp(-2.0) * grow)
        assert out[1] == pytest.approx(100.0 - 100.0 * math.exp(-0.5) * grow)
        assert out[2] == 0.0 and out[3] == 0.0

    def test_call_branches(self):
        fn = european_asymptote(bench_spec(rate=0.1, kind="call"))
        out = fn(np.array([-1.0, 0.0, 0.5]), 0.2)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(100.0 * math.exp(0.5 + 0.02) - 100.0)


class TestIntegralOperator:
    def test_empty_measure_is_zero_operator(self):
        grid = GridSpec()
        op = assemble_integral_operator(NoJumps(), grid)
        assert op.offsets.size == 0
        xs = grid.xs()
        out = op.apply(np.exp(xs), xs, 0.0, lambda xq, tau: np.exp(xq))
        assert np.array_equal(out, np.zeros_like(xs))

    @pytest.mark.parametrize("name", sorted(ALL_JUMP_MODELS))
    def test_annihilates_exponential_samples(self, name):
        # discrete martingale identity: F applied to e^x vanishes to roundoff,
        # on the direct path (default grid) and on the FFT path (fine grid)
        for grid in (GridSpec(), FFT_GRID):
            xs = grid.xs()
            op = assemble_integral_operator(ALL_JUMP_MODELS[name], grid)
            out = op.apply(np.exp(xs), xs, 0.0, lambda xq, tau: np.exp(xq))
            assert np.max(np.abs(out[1:-1])) <= 1e-6 * STRIKE / 100.0

    @pytest.mark.parametrize(
        "name, grid",
        [(name, FFT_GRID) for name in sorted(ALL_JUMP_MODELS)]
        + [
            ("merton", GridSpec(n_space=1600, z_max=2.0)),
            ("merton", GridSpec(n_space=1600, delta=3.0 * FFT_GRID.dx)),
        ],
        ids=lambda v: v if isinstance(v, str) else f"z{v.z_max:g}-d{v.delta / v.dx:g}",
    )
    def test_fft_apply_matches_direct_correlation(self, name, grid):
        op = assemble_integral_operator(ALL_JUMP_MODELS[name], grid)
        assert op.kernel_rfft is not None
        spec = bench_spec(rate=0.1)
        extend = european_asymptote(spec)
        xs = grid.xs()
        u = extend(xs, 0.3) + np.cos(3.0 * xs)
        out = op.apply(u, xs, 0.3, extend)

        J = int(op.offsets.max())
        upad = np.concatenate(
            [extend(xs[0] + op.dx * np.arange(-J, 0), 0.3), u,
             extend(xs[-1] + op.dx * np.arange(1, J + 1), 0.3)]
        )
        wfull = np.zeros(2 * J + 1)
        wfull[op.offsets + J] = op.weights
        ref = np.correlate(upad, wfull, mode="valid") - op.total_weight * u
        d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / op.dx**2
        d1 = (u[2:] - u[:-2]) / (2.0 * op.dx)
        ref[1:-1] += op.local_correction * d2 - op.drift_correction * d1
        ref[0] = ref[-1] = 0.0
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(out))

    def test_fft_apply_refuses_a_longer_node_vector(self):
        op = assemble_integral_operator(BENCH_MERTON, FFT_GRID)
        xs = GridSpec(half_width=8.0, n_space=3200).xs()
        with pytest.raises(ValueError, match="assembled for"):
            op.apply(np.ones_like(xs), xs, 0.0, lambda xq, tau: np.ones(np.shape(xq)))

    def test_direct_apply_refuses_a_foreign_node_vector(self):
        op = assemble_integral_operator(BENCH_MERTON, GridSpec())
        assert op.kernel_rfft is None
        xs = GridSpec(half_width=8.0, n_space=800).xs()
        with pytest.raises(ValueError, match="assembled for 401"):
            op.apply(np.ones_like(xs), xs, 0.0, lambda xq, tau: np.ones(np.shape(xq)))

    def test_annihilates_constants_exactly(self):
        grid = GridSpec()
        xs = grid.xs()
        op = assemble_integral_operator(BENCH_MERTON, grid)
        out = op.apply(np.full_like(xs, 7.0), xs, 0.0, lambda xq, tau: np.full(xq.shape, 7.0))
        assert np.max(np.abs(out[1:-1])) == 0.0

    def test_second_exponential_moment(self):
        # F[e^{2x}] / e^{2x} = lambda (e^{2m+2 delta^2} - 1 - 2(e^{m+delta^2/2} - 1))
        lam, m, delta = 0.1, -0.2, 0.15
        exact = lam * (
            math.exp(2.0 * m + 2.0 * delta**2)
            - 1.0
            - 2.0 * (math.exp(m + delta**2 / 2.0) - 1.0)
        )
        assert exact == pytest.approx(0.004518648482478938, rel=1e-15)

        def ratio_at_origin(grid):
            xs = grid.xs()
            op = assemble_integral_operator(BENCH_MERTON, grid)
            out = op.apply(np.exp(2.0 * xs), xs, 0.0, lambda xq, tau: np.exp(2.0 * xq))
            mid = int(np.argmin(np.abs(xs)))
            return out[mid] / math.exp(2.0 * xs[mid])

        coarse = ratio_at_origin(GridSpec())
        fine = ratio_at_origin(GridSpec(n_space=800))
        assert coarse == pytest.approx(exact, abs=2e-5)
        # second-order accurate: halving dx divides the error by about four
        assert 3.0 < (coarse - exact) / (fine - exact) < 5.0

    def test_refuses_supercritical_singularity(self):
        with pytest.raises(ValueError, match="alpha"):
            assemble_integral_operator(CGMY(c=0.5, g=6.0, m=8.0, y=2.5), GridSpec())

    def test_weights_are_nonnegative(self):
        op = assemble_integral_operator(BENCH_MERTON, GridSpec())
        assert np.all(op.weights >= 0.0)
        assert op.total_weight > 0.0
        assert op.local_correction >= 0.0

    def test_split_radius_snaps_to_lattice(self):
        grid = GridSpec(delta=0.05)
        op = assemble_integral_operator(BENCH_MERTON, grid)
        steps = op.delta_eff / grid.dx
        assert steps == pytest.approx(round(steps), abs=1e-12)
        assert op.delta_eff > 0.0


class TestStepImex:
    def test_single_step_tracks_closed_form(self):
        spec = bench_spec(rate=0.1)
        grid = GridSpec()
        ops = assemble_operators(spec, NoJumps(), grid)
        xs, _, u0 = build_grid(spec, grid)
        u1 = step_imex(u0, ops, 0.0)
        ref = u_bs(spec, ops.dt, xs)
        err = np.abs(u1 - ref)
        assert err.max() < 0.5  # first step smooths the payoff kink
        assert err[np.abs(xs) > 0.1].max() < 1e-3

    def test_zero_data_stays_zero(self):
        spec = bench_spec(rate=0.1)
        grid = GridSpec()
        zero = FarField(0.0, level=np.zeros_like, growth=np.zeros_like)
        ops = assemble_operators(spec, BENCH_MERTON, grid, boundary=zero)
        u1 = step_imex(np.zeros(grid.n_space + 1), ops, 0.0)
        assert np.array_equal(u1, np.zeros(grid.n_space + 1))

    def test_preserves_discounted_forward(self):
        # u = K e^{r tau + x} solves the transformed equation exactly; ten
        # steps of the scheme follow it to a few parts in 1e7
        spec = bench_spec(rate=0.1)
        grid = GridSpec()
        fwd = FarField(spec.rate, level=np.zeros_like, growth=lambda xq: STRIKE * np.exp(xq))
        ops = assemble_operators(spec, BENCH_MERTON, grid, boundary=fwd)
        xs = grid.xs()
        u, tau = fwd(xs, 0.0), 0.0
        for _ in range(10):
            u = step_imex(u, ops, tau)
            tau += ops.dt
        ref = fwd(xs, tau)
        assert np.max(np.abs(u - ref)) / np.max(ref) < 1e-5

    def test_growth_guard_trips_on_exploding_boundary(self):
        spec = bench_spec(rate=0.1)
        grid = GridSpec()
        blowup = FarField(0.0, level=lambda xq: np.full(np.shape(xq), 1e9), growth=np.zeros_like)
        ops = assemble_operators(spec, BENCH_MERTON, grid, boundary=blowup)
        _, _, u0 = build_grid(spec, grid)
        with pytest.raises(RuntimeError, match="stability") as info:
            step_imex(u0, ops, 0.0)
        # the message quotes the large-jump stiffness number dt*W
        stiffness = ops.dt * ops.integral.total_weight
        assert f"dt*W = {stiffness:.4g})" in str(info.value)

    @pytest.mark.parametrize("hooked", [False, True], ids=["banded", "penalty-sweep"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_growth_guard_rejects_non_finite_values(self, bad, hooked):
        # the LAPACK kernels do not check their input, so the guard must
        spec = bench_spec(rate=0.1)
        grid = GridSpec()
        ops = assemble_operators(spec, BENCH_MERTON, grid)
        _, _, u0 = build_grid(spec, grid)
        u0[grid.n_space // 2] = bad
        pen = np.full(grid.n_space - 1, 10.0)

        def sweep(rhs, u_next, u_prev):
            u_next[1:-1] = _implicit_solve(ops, rhs + pen * u_prev[1:-1], extra_diag=pen)

        with np.errstate(invalid="ignore"), pytest.raises(
            RuntimeError, match="stability envelope: max.u_next. = nan"
        ):
            step_imex(u0, ops, 0.0, sweep if hooked else None)

    @pytest.mark.parametrize("grid", [GridSpec(), FFT_GRID], ids=["direct", "fft"])
    @pytest.mark.parametrize("far", ["put", "call", "exercise"])
    def test_matches_a_step_built_from_apply(self, far, grid):
        # the step takes the far field's share of the jump term from the terms
        # precomputed at assembly; here the far field is evaluated afresh
        spec = bench_spec(rate=0.1, kind="call" if far == "call" else "put")
        boundary = exercise_asymptote(spec) if far == "exercise" else european_asymptote(spec)
        ops = assemble_operators(spec, BENCH_MERTON, grid, boundary=boundary)
        xs, dx, dt, tau = ops.xs, grid.dx, ops.dt, 0.3
        u = boundary(xs, tau) + 5.0 * np.cos(3.0 * xs)
        got = step_imex(u, ops, tau)

        jumps = ops.integral.apply(u, xs, tau, boundary)
        d1 = (u[2:] - u[:-2]) / (2.0 * dx)
        rhs = u[1:-1] + dt * ((spec.rate - 0.5 * spec.sigma**2) * d1 + jumps[1:-1])
        lo, hi = boundary(np.array([xs[0], xs[-1]]), tau + dt)
        c = dt * 0.5 * spec.sigma**2 / dx**2
        rhs[0] += c * lo
        rhs[-1] += c * hi
        ref = np.concatenate([[lo], solve_banded((1, 1), ops.band, rhs), [hi]])
        assert got[0] == lo and got[-1] == hi
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_factored_solve_matches_fresh_elimination(self):
        # dgttrs on the assembly's factors runs dgtsv's arithmetic
        ops = assemble_operators(bench_spec(rate=0.1), BENCH_MERTON, GridSpec())
        rhs = np.cos(np.arange(ops.grid.n_space - 1.0))
        factored = _implicit_solve(ops, rhs)
        fresh = _implicit_solve(ops, rhs, extra_diag=np.zeros_like(rhs))
        assert factored.tobytes() == fresh.tobytes()

    def test_singular_band_raises_linalg_error(self):
        # zero diagonal, off-diagonals -c: singular for the odd interior count 399
        ops = assemble_operators(bench_spec(rate=0.1), BENCH_MERTON, GridSpec())
        rhs = np.ones(ops.grid.n_space - 1)
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix") as info:
            _implicit_solve(ops, rhs, extra_diag=-ops.band[1])
        assert isinstance(info.value, ValueError)  # the CLI's exit 2


class TestSolveEuropean:
    @pytest.mark.parametrize("rate", RATES)
    def test_diffusion_only_matches_closed_form(self, rate):
        spec = bench_spec(rate=rate)
        surface = solve_european(spec, NoJumps(), GridSpec())
        S = grid_spots()
        gap = np.max(np.abs(surface.price_at(0.0, S) - bs_price(spec, S)))
        assert gap <= 0.02 * STRIKE

    def test_refinement_shrinks_the_error(self):
        spec = bench_spec(rate=0.1)
        S = grid_spots()
        ref = bs_price(spec, S)
        coarse = solve_european(spec, NoJumps(), GridSpec(n_space=200, n_time=100))
        fine = solve_european(spec, NoJumps(), GridSpec())
        e_coarse = np.max(np.abs(coarse.price_at(0.0, S) - ref))
        e_fine = np.max(np.abs(fine.price_at(0.0, S) - ref))
        assert e_coarse / e_fine >= 1.8

    @pytest.mark.parametrize("rate", RATES)
    def test_agrees_with_series_oracle(self, rate, merton_surfaces):
        spec = bench_spec(rate=rate)
        surface = merton_surfaces[rate]
        for s in TABLE_SPOTS:
            series = merton_series_price(spec, BENCH_MERTON, s)
            assert surface.price_at(0.0, s) == pytest.approx(series, abs=0.1)

    def test_put_decreases_in_spot(self, merton_surfaces):
        prices = merton_surfaces[0.1].price_at(0.0, grid_spots(n=40))
        assert np.all(np.diff(prices) <= 1e-10)

    def test_prices_stay_nonnegative(self, merton_surfaces):
        for surface in merton_surfaces.values():
            assert float(surface.u.min()) >= -1e-8

    def test_jumps_add_value(self, merton_surfaces):
        # downward-biased lognormal jumps raise every table put price
        spec = bench_spec(rate=0.1)
        for s in TABLE_SPOTS:
            assert merton_surfaces[0.1].price_at(0.0, s) >= bs_price(spec, s) - 1e-3

    def test_gates_on_integrability(self):
        with pytest.raises(ValueError, match="integrability"):
            solve_european(bench_spec(), CGMY(c=0.5, g=6.0, m=8.0, y=2.5), GridSpec())

    # frozen put prices at r = 0.1: a change to the step, the tridiagonal
    # solve or the jump apply (direct and FFT) shows here first
    @pytest.mark.parametrize(
        "model, grid, spot, price",
        [
            (NoJumps(), GridSpec(), 85.2144, 10.93861346161683),
            (NoJumps(), GridSpec(), 100.0, 4.7548232799398615),
            (BENCH_MERTON, GridSpec(), 85.2144, 11.235290423197835),
            (BENCH_MERTON, GridSpec(), 100.0, 5.151255041398718),
            (BENCH_VG, GridSpec(), 85.2144, 15.632343627449808),
            (BENCH_VG, GridSpec(), 100.0, 10.061854566526046),
            (BENCH_MERTON, FFT_GRID, 85.2144, 11.239702263409555),
            (BENCH_MERTON, FFT_GRID, 100.0, 5.1581778093382615),
        ],
        ids=[
            "none-85.2144", "none-100", "merton-85.2144", "merton-100",
            "vg-85.2144", "vg-100", "merton-fft-85.2144", "merton-fft-100",
        ],
    )
    def test_frozen_prices(self, model, grid, spot, price):
        surface = solve_european(bench_spec(rate=0.1), model, grid)
        assert surface.price_at(0.0, spot) == pytest.approx(price, rel=1e-10, abs=0.0)


class TestPriceAt:
    def test_node_queries_reproduce_stored_values(self, merton_surfaces):
        surface = merton_surfaces[0.1]
        disc = math.exp(-0.1 * 1.0)
        for i in (120, 200, 271):
            S = STRIKE * math.exp(surface.xs[i])
            assert surface.price_at(0.0, S) == pytest.approx(
                disc * surface.u[-1, i], rel=1e-12
            )

    def test_expiry_returns_payoff(self, merton_surfaces):
        surface = merton_surfaces[0.1]
        spec = bench_spec(rate=0.1)
        for s in (85.2144, 100.0, 112.75):
            # rounded spots land a few 1e-7 off the nodes; the interpolation
            # of the kinked payoff is linear, so allow that much slack
            assert surface.price_at(1.0, s) == pytest.approx(payoff(spec, s), abs=2e-6)

    def test_vector_matches_scalar(self, merton_surfaces):
        surface = merton_surfaces[0.0]
        S = np.array([82.0, 100.0, 119.5])
        vec = surface.price_at(0.0, S)
        for s, v in zip(S, vec):
            assert surface.price_at(0.0, float(s)) == v

    def test_refuses_out_of_range_queries(self, merton_surfaces):
        surface = merton_surfaces[0.1]
        with pytest.raises(ValueError, match="extrapolate"):
            surface.price_at(0.0, STRIKE * math.exp(4.1))
        with pytest.raises(ValueError, match="extrapolate"):
            surface.price_at(0.0, STRIKE * math.exp(-4.1))
        with pytest.raises(ValueError):
            surface.price_at(0.0, 0.0)
        with pytest.raises(ValueError):
            surface.price_at(1.5, 100.0)


class TestSurfaceCsv:
    def test_round_trip(self, tmp_path, merton_surfaces):
        surface = merton_surfaces[0.1]
        path = tmp_path / "surface.csv"
        surface_to_csv(surface, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "tau,x,u"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        # tau is the outer loop, x the inner one
        taus, xs, u = rows.T.reshape(3, *surface.u.shape)
        assert np.allclose(taus, surface.taus[:, None], rtol=1e-8, atol=1e-12)
        assert np.allclose(xs, surface.xs[None, :], rtol=1e-8, atol=1e-12)
        assert np.allclose(u, surface.u, rtol=1e-8, atol=1e-8)
