"""The grid, the discrete jump operator, IMEX stepping, and the European solve."""
import math
import pickle
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf

from conftest import (
    ALL_JUMP_MODELS,
    BENCH_MERTON,
    BENCH_VG,
    RATES,
    STRIKE,
    TABLE_SPOTS,
    assert_last_level_surface,
    bench_spec,
    far_values,
    grid_spots,
    jump_reference,
    stepped_jump_term,
)
from levypide.american import exercise_asymptote
from levypide.bs import OptionSpec, bs_price, payoff, u_bs
from levypide.levy import CGMY, Kou, NoJumps, VarianceGamma, truncated_second_moment
from levypide.oracle import merton_series_price
from levypide.pide import (
    _FFT_MIN_OFFSET,
    Correlation,
    FarField,
    GridSpec,
    GrowthGuardError,
    Lockstep,
    StepHistory,
    _explicit_term,
    _implicit_solve,
    _march,
    assemble_integral_operator,
    assemble_operators,
    build_grid,
    european_asymptote,
    solve_european,
    step_imex,
)

PAYOFF_TABLE = (14.7856, 11.308, 7.68837, 3.92106, 0.0, 0.0, 0.0, 0.0)

# J = 800 lattice offsets: above the cut-over, so the step's correlation uses the FFT
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
            {"n_time": 50.5},
            {"n_space": 100.0},
        ],
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises(ValueError):
            GridSpec(**kw)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"delta": 1.0}, "delta must lie in (0, 5*dx], got delta = 1, dx = 0.02"),
            ({"delta": 0.2, "n_space": 800}, "got delta = 0.2, dx = 0.01"),
            ({"z_max": 5.0}, "need delta <= z_max <= half_width, got delta = 0.02, "
             "z_max = 5, half_width = 4"),
            ({"delta": 0.04, "z_max": 0.03}, "got delta = 0.04, z_max = 0.03, half_width = 4"),
        ],
    )
    def test_a_refusal_quotes_its_values(self, kw, message):
        with pytest.raises(ValueError) as info:
            GridSpec(**kw)
        assert message in str(info.value)


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
        fn = far_values(european_asymptote(bench_spec(rate=0.1)), 0.1)
        x = np.array([-2.0, -0.5, 0.0, 1.5])
        out = fn(x, 0.3)
        grow = math.exp(0.1 * 0.3)
        assert out[0] == pytest.approx(100.0 - 100.0 * math.exp(-2.0) * grow)
        assert out[1] == pytest.approx(100.0 - 100.0 * math.exp(-0.5) * grow)
        assert out[2] == 0.0 and out[3] == 0.0

    def test_call_branches(self):
        fn = far_values(european_asymptote(bench_spec(rate=0.1, kind="call")), 0.1)
        out = fn(np.array([-1.0, 0.0, 0.5]), 0.2)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(100.0 * math.exp(0.5 + 0.02) - 100.0)


class TestCorrelation:
    @staticmethod
    def assert_matches_the_padded_correlation(corr, far_field, rate, xs):
        # corr with the far field's share against np.correlate of the node
        # vector padded with the far-field values beyond each edge
        extend = far_values(far_field, rate)
        dx, J = xs[1] - xs[0], corr.kernel.size // 2
        beyond = np.concatenate([xs[0] + dx * np.arange(-J, 0), xs[-1] + dx * np.arange(1, J + 1)])
        ext = extend(beyond, 0.3)
        u = extend(xs, 0.3) + np.cos(3.0 * xs)
        out = corr(u, corr.far_data(ext))
        ref = np.correlate(np.concatenate([ext[:J], u, ext[J:]]), corr.kernel, mode="valid")
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(out))

    @pytest.mark.parametrize(
        "name, grid, far",
        [(name, FFT_GRID, "european") for name in sorted(ALL_JUMP_MODELS)]
        + [
            ("merton", GridSpec(n_space=1600, z_max=2.0), "european"),
            ("merton", GridSpec(n_space=1600, delta=3.0 * FFT_GRID.dx), "european"),
        ]
        + [
            (name, GridSpec(), far)
            for name in sorted(ALL_JUMP_MODELS)
            for far in ("european", "exercise")
        ],
        ids=lambda v: (
            v if isinstance(v, str) else f"n{v.n_space}-z{v.z_max:g}-d{v.delta / v.dx:g}"
        ),
    )
    def test_matches_the_padded_correlation(self, name, grid, far):
        # the step's kernel on the FFT path (1600 nodes) and on the direct
        # path (the default grid), with the European and the American far field
        spec = bench_spec(rate=0.1)
        corr = assemble_operators(spec, ALL_JUMP_MODELS[name], grid).explicit
        assert (corr.kernel_rfft is None) == (grid.n_space == GridSpec().n_space)
        far_field = exercise_asymptote(spec) if far == "exercise" else european_asymptote(spec)
        self.assert_matches_the_padded_correlation(corr, far_field, spec.rate, grid.xs())

    @pytest.mark.parametrize("J", [60, 120, _FFT_MIN_OFFSET + 50])
    @pytest.mark.parametrize("far", ["european", "exercise"])
    def test_kernels_longer_than_the_node_vector(self, J, far):
        # GridSpec keeps z_max <= half_width, so the kernel of a grid with 2J
        # steps correlates over 101 nodes of the same spacing: 2J + 1 taps
        # reach past the node vector, and from J = 101 past every node
        spec = bench_spec(rate=0.1)
        grid = GridSpec(n_space=2 * J)
        kernel = assemble_operators(spec, BENCH_MERTON, grid).explicit.kernel
        assert kernel.size == 2 * J + 1
        corr = Correlation.of(kernel, 101)
        assert corr.kernel_rfft is not None
        xs = grid.dx * np.arange(-50.0, 51.0)
        far_field = exercise_asymptote(spec) if far == "exercise" else european_asymptote(spec)
        self.assert_matches_the_padded_correlation(corr, far_field, spec.rate, xs)

    @pytest.mark.parametrize("grid", [GridSpec(), FFT_GRID], ids=["direct", "fft"])
    def test_built_once_per_assembly(self, grid, monkeypatch):
        # the explicit kernel is the only correlation an assembly builds, and
        # the start substep shares it with the SBDF2 step
        of = Correlation.of.__func__
        sizes = []

        def counted(cls, kernel, n_nodes):
            sizes.append(n_nodes)
            return of(cls, kernel, n_nodes)

        monkeypatch.setattr(Correlation, "of", classmethod(counted))
        ops = assemble_operators(bench_spec(), BENCH_MERTON, grid)
        assert sizes == [grid.n_space + 1]
        assert ops.start.explicit is ops.explicit
        assert (ops.explicit.kernel_rfft is None) == (grid is not FFT_GRID)

    @pytest.mark.parametrize("grid", [GridSpec(), FFT_GRID], ids=["direct", "fft"])
    @pytest.mark.parametrize("batch", [False, True], ids=["solo", "lockstep"])
    def test_leaves_its_arguments_unchanged(self, grid, batch):
        # the step works in place on the arrays these calls return, never on
        # the arrays passed in, the operators' included
        rows = [assemble_operators(bench_spec(rate=r), BENCH_MERTON, grid) for r in RATES]
        ops = Lockstep.of(rows) if batch else rows[0]
        corr = ops.explicit
        assert (corr.kernel_rfft is None) == (grid is not FFT_GRID)
        rng = np.random.default_rng(5)
        shape = (len(rows),) if batch else ()
        u = rng.standard_normal(shape + (grid.n_space + 1,))
        far = rng.standard_normal(shape + ops.far_level.shape[-1:])
        args = [u, far, ops.far_level, ops.far_growth, corr.kernel]
        if corr.kernel_rfft is not None:
            args.append(corr.kernel_rfft)
        before = [a.copy() for a in args]
        out = corr(u, far)
        term = _explicit_term(u, ops, 0.3)
        assert not any(np.shares_memory(r, a) for r in (out, term) for a in args)
        for a, b in zip(args, before):
            assert a.tobytes() == b.tobytes()


class TestIntegralOperator:
    # the annihilation tests evaluate the operator as the step does, through
    # the explicit kernel, on the direct path (default grid) and the FFT path

    def test_empty_measure_is_zero_operator(self):
        op = assemble_integral_operator(NoJumps(), GridSpec())
        assert op.offsets.size == 0 and op.weights.size == 0
        assert op.total_weight == op.local_correction == op.drift_correction == 0.0
        for grid in (GridSpec(), FFT_GRID):
            out = stepped_jump_term(NoJumps(), grid, np.exp)
            assert np.max(np.abs(out)) <= 1e-12 * math.exp(grid.half_width)

    @pytest.mark.parametrize("name", sorted(ALL_JUMP_MODELS))
    def test_annihilates_exponential_samples(self, name):
        # discrete martingale identity: F applied to e^x vanishes to roundoff
        for grid in (GridSpec(), FFT_GRID):
            out = stepped_jump_term(ALL_JUMP_MODELS[name], grid, np.exp)
            assert np.max(np.abs(out)) <= 1e-6 * STRIKE / 100.0

    def test_annihilates_constants(self):
        for grid in (GridSpec(), FFT_GRID):
            out = stepped_jump_term(BENCH_MERTON, grid, lambda x: np.full(np.shape(x), 7.0))
            assert np.max(np.abs(out)) <= 1e-13 * 7.0

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
            out = jump_reference(op, xs, np.exp(2.0 * xs), lambda xq, tau: np.exp(2.0 * xq), 0.0)
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

    @pytest.mark.parametrize(
        "model, numbers",
        [
            (VarianceGamma(a=0.5, b=1.2, c=1.0),
             "alpha = 1, mu = 0, d_minus + 1 = 0.3, d_plus = 1.7"),
            (Kou(lam=1.0, theta=0.5, lam_plus=1.0, lam_minus=3.0),
             "alpha = 0, mu = 0, d_minus + 1 = 0, d_plus = 3"),
        ],
        ids=["vg", "kou"],
    )
    def test_refuses_an_upward_wing_that_decays_too_slowly(self, model, numbers):
        # E[e^J] diverges, so the risk-neutral drift is undefined; the
        # integrability check alone passes both
        message = f"measure is not admissible: .*got {re.escape(numbers)}$"
        with pytest.raises(ValueError, match=message):
            assemble_integral_operator(model, GridSpec())
        # just inside the admissible wing the same family still assembles
        assemble_integral_operator(
            Kou(lam=1.0, theta=0.5, lam_plus=1.05, lam_minus=3.0), GridSpec()
        )

    def test_weights_are_nonnegative(self):
        op = assemble_integral_operator(BENCH_MERTON, GridSpec())
        assert np.all(op.weights >= 0.0)
        assert op.total_weight > 0.0
        assert op.local_correction >= 0.0

    def test_explicit_kernel_spans_the_largest_offset(self):
        # E's half-width is the largest jump offset; without jumps it is 1,
        # where only the drift's centered difference remains
        grid = GridSpec()
        spec = bench_spec(rate=0.1)
        for model in ALL_JUMP_MODELS.values():
            ops = assemble_operators(spec, model, grid)
            op, kernel = ops.integral, ops.explicit.kernel
            J = int(op.offsets.max())
            assert kernel.size == 2 * J + 1
            far = np.abs(op.offsets) > 1
            assert np.array_equal(kernel[op.offsets[far] + J], op.weights[far])
        kernel = assemble_operators(spec, NoJumps(), grid).explicit.kernel
        slope = (spec.rate - 0.5 * spec.sigma**2) / (2.0 * grid.dx)
        assert np.array_equal(kernel, np.array([-slope, 0.0, slope]))

    def test_split_radius_snaps_to_lattice(self):
        # delta = 2.5 dx rounds to 2 dx: the smallest offset, and the radius of
        # the small-jump correction
        grid = GridSpec(delta=0.05)
        op = assemble_integral_operator(BENCH_MERTON, grid)
        j0 = int(np.min(np.abs(op.offsets)))
        assert j0 == 2
        assert op.local_correction == 0.5 * truncated_second_moment(BENCH_MERTON, j0 * grid.dx)


def explicit_from_reference(ops, u, tau, boundary):
    """E(u) on the interior: the drift plus the jump term written out by
    jump_reference, with the far field evaluated afresh rather than taken from
    the terms assembly precomputed."""
    spec, dx = ops.spec, ops.grid.dx
    jumps = jump_reference(ops.integral, ops.xs, u, boundary, tau)
    d1 = (u[2:] - u[:-2]) / (2.0 * dx)
    return (spec.rate - 0.5 * spec.sigma**2) * d1 + jumps[1:-1]


def implicit_from_scratch(spec, grid, dt, lead, rhs, lo, hi):
    """Solve (lead I - dt D) u = rhs on the interior with Dirichlet values lo and
    hi, the band built afresh and solved by scipy's banded solver."""
    c = dt * 0.5 * spec.sigma**2 / grid.dx**2
    band = np.zeros((3, grid.n_space - 1))
    band[0, 1:] = -c
    band[1, :] = lead + 2.0 * c
    band[2, :-1] = -c
    rhs = rhs.copy()
    rhs[0] += c * lo
    rhs[-1] += c * hi
    return np.concatenate([[lo], solve_banded((1, 1), band, rhs), [hi]])


class TestStepImex:
    def test_single_step_tracks_closed_form(self):
        spec = bench_spec(rate=0.1)
        grid = GridSpec()
        ops = assemble_operators(spec, NoJumps(), grid)
        xs, _, u0 = build_grid(spec, grid)
        u1, _ = step_imex(u0, ops, 0.0)
        ref = u_bs(spec, ops.dt, xs)
        err = np.abs(u1 - ref)
        assert err.max() < 0.5  # first step smooths the payoff kink
        assert err[np.abs(xs) > 0.1].max() < 1e-3

    def test_zero_data_stays_zero(self):
        spec = bench_spec(rate=0.1)
        grid = GridSpec()
        zero = FarField(level=np.zeros_like, growth=np.zeros_like)
        ops = assemble_operators(spec, BENCH_MERTON, grid, boundary=zero)
        u, history = np.zeros(grid.n_space + 1), None
        for n in range(3):  # the start, then two SBDF2 steps
            u, history = step_imex(u, ops, n * ops.dt, history)
            assert np.array_equal(u, np.zeros(grid.n_space + 1))

    def test_preserves_discounted_forward(self):
        # u = K e^{r tau + x} solves the transformed equation exactly; the start
        # and nine SBDF2 steps follow it to a few parts in 1e7
        spec = bench_spec(rate=0.1)
        grid = GridSpec()
        fwd = FarField(level=np.zeros_like, growth=lambda xq: STRIKE * np.exp(xq))
        ops = assemble_operators(spec, BENCH_MERTON, grid, boundary=fwd)
        xs = grid.xs()
        exact = far_values(fwd, spec.rate)
        u, tau, history = exact(xs, 0.0), 0.0, None
        for _ in range(10):
            u, history = step_imex(u, ops, tau, history)
            tau += ops.dt
        ref = exact(xs, tau)
        assert np.max(np.abs(u - ref)) / np.max(ref) < 1e-5

    @pytest.mark.parametrize("grid", [GridSpec(), FFT_GRID], ids=["direct", "fft"])
    def test_leaves_its_level_and_history_unchanged(self, grid):
        # the start and an SBDF2 step build b and the right-hand side in place
        # on their own arrays; the history they return is what they took
        spec = bench_spec(rate=0.1)
        ops = assemble_operators(spec, BENCH_MERTON, grid)
        u0 = build_grid(spec, grid)[2]
        kept = u0.copy()
        u1, history = step_imex(u0, ops, 0.0)
        assert u0.tobytes() == kept.tobytes() and history.u_before is u0
        kept = [u1.copy(), history.u_before.copy(), history.b_before.copy()]
        u2, after = step_imex(u1, ops, ops.dt, history)
        assert [u1.tobytes(), history.u_before.tobytes(), history.b_before.tobytes()] == [
            a.tobytes() for a in kept
        ]
        assert after.u_before is u1 and not np.shares_memory(after.b_before, u2)

    def test_growth_guard_trips_on_exploding_boundary(self):
        spec = bench_spec(rate=0.1)
        grid = GridSpec()
        blowup = FarField(level=lambda xq: np.full(np.shape(xq), 1e9), growth=np.zeros_like)
        ops = assemble_operators(spec, BENCH_MERTON, grid, boundary=blowup)
        _, _, u0 = build_grid(spec, grid)
        with pytest.raises(RuntimeError, match="stability") as info:
            step_imex(u0, ops, 0.0)
        # the first start substep trips; the message quotes its step size and
        # large-jump stiffness number dt*W
        dt = ops.start.dt
        assert f"(dt = {dt:.4g}, dt*W = {dt * ops.integral.total_weight:.4g})" in str(info.value)

    def test_growth_guard_trips_in_an_sbdf2_step(self):
        spec = bench_spec(rate=0.1)
        grid = GridSpec()
        zero = FarField(level=np.zeros_like, growth=np.zeros_like)
        calm = assemble_operators(spec, BENCH_MERTON, grid, boundary=zero)
        u1, history = step_imex(np.zeros(grid.n_space + 1), calm, 0.0)
        blowup = FarField(level=lambda xq: np.full(np.shape(xq), 1e9), growth=np.zeros_like)
        ops = assemble_operators(spec, BENCH_MERTON, grid, boundary=blowup)
        with pytest.raises(RuntimeError, match="stability") as info:
            step_imex(u1, ops, calm.dt, history)
        assert f"(dt = {ops.dt:.4g}, dt*W = {ops.dt * ops.integral.total_weight:.4g})" in str(
            info.value
        )

    @pytest.mark.parametrize("swept", [False, True], ids=["banded", "penalty-sweep"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_growth_guard_rejects_non_finite_values(self, bad, swept):
        # the LAPACK kernels do not check their input, so the guard must
        spec = bench_spec(rate=0.1)
        grid = GridSpec()
        ops = assemble_operators(spec, BENCH_MERTON, grid)
        _, _, u0 = build_grid(spec, grid)
        u0[grid.n_space // 2] = bad
        pen = np.full(grid.n_space - 1, 10.0)

        def sweep(step, tau, rhs, u_next, u_prev):
            u_next[1:-1] = _implicit_solve(step, rhs + pen * u_prev[1:-1], extra_diag=pen)

        if swept:
            ops.sweep = ops.start.sweep = sweep
        with np.errstate(invalid="ignore"), pytest.raises(
            RuntimeError, match="stability envelope: max.u_next. = nan"
        ):
            step_imex(u0, ops, 0.0)

    @pytest.mark.parametrize("grid", [GridSpec(), FFT_GRID], ids=["direct", "fft"])
    @pytest.mark.parametrize("far", ["put", "call", "exercise"])
    @pytest.mark.parametrize("name", sorted(ALL_JUMP_MODELS) + ["nojumps"])
    def test_matches_a_step_built_from_apply(self, name, far, grid):
        # the step takes E from the one kernel assembly folded the drift, the
        # jump weights and the small-jump stencils into, with the far field's
        # share precomputed, and its matrices from the factors made there;
        # here E comes from jump_reference plus the drift stencil, the
        # matrices are built afresh, and the SBDF2 step is written as
        # (3/2) u+ - dt D u+ = 2 u - u-/2 + dt (2 E(u) - E(u-))
        model = ALL_JUMP_MODELS.get(name, NoJumps())
        spec = bench_spec(rate=0.1, kind="call" if far == "call" else "put")
        far_field = exercise_asymptote(spec) if far == "exercise" else european_asymptote(spec)
        ops = assemble_operators(spec, model, grid, boundary=far_field)
        boundary = far_values(far_field, spec.rate)
        xs, dt, tau = ops.xs, ops.dt, 0.3
        u_before = boundary(xs, tau - dt) + 4.0 * np.sin(2.0 * xs)
        u = boundary(xs, tau) + 5.0 * np.cos(3.0 * xs)
        e_before = explicit_from_reference(ops, u_before, tau - dt, boundary)
        e_now = explicit_from_reference(ops, u, tau, boundary)
        for v, t, ref in ((u_before, tau - dt, e_before), (u, tau, e_now)):
            assert np.max(np.abs(_explicit_term(v, ops, t) - ref)) <= 1e-11 * np.max(np.abs(ref))
        lo, hi = boundary(np.array([xs[0], xs[-1]]), tau + dt)

        history = StepHistory(u_before, u_before[1:-1] + dt * e_before, np.max(np.abs(u)))
        got, after = step_imex(u, ops, tau, history)
        rhs = 2.0 * u[1:-1] - 0.5 * u_before[1:-1] + dt * (2.0 * e_now - e_before)
        ref = implicit_from_scratch(spec, grid, dt, 1.5, rhs, lo, hi)
        assert got[0] == lo and got[-1] == hi
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert after.u_before is u
        assert np.max(np.abs(after.b_before - (u[1:-1] + dt * e_now))) <= 1e-12 * np.max(np.abs(u))
        assert after.peak == max(np.max(np.abs(got)), spec.strike)  # the guard's scale

        # without history: four backward-Euler substeps of dt / 4
        got, after = step_imex(u, ops, tau)
        v, sub = u, dt / 4
        for k in range(4):
            t = tau + k * sub
            rhs = v[1:-1] + sub * explicit_from_reference(ops, v, t, boundary)
            v = implicit_from_scratch(spec, grid, sub, 1.0, rhs, *boundary(xs[[0, -1]], t + sub))
        assert np.max(np.abs(got - v)) <= 1e-12 * np.max(np.abs(v))
        assert np.max(np.abs(after.b_before - (u[1:-1] + dt * e_now))) <= 1e-12 * np.max(np.abs(u))

    def test_factored_solve_matches_fresh_elimination(self):
        # dgttrs on the assembly's factors runs dgtsv's arithmetic, for the
        # SBDF2 step's matrix and the start substep's
        sbdf2 = assemble_operators(bench_spec(rate=0.1), BENCH_MERTON, GridSpec())
        rhs = np.cos(np.arange(sbdf2.grid.n_space - 1.0))
        for ops in (sbdf2, sbdf2.start):
            factored = _implicit_solve(ops, rhs)
            fresh = _implicit_solve(ops, rhs, extra_diag=np.zeros_like(rhs))
            assert factored.tobytes() == fresh.tobytes()

    def test_folds_the_edges_with_the_bands_own_off_diagonals(self):
        # a hand-made nonsymmetric band: the low Dirichlet value enters the
        # first interior equation through the sub-diagonal, the high one the
        # last through the super-diagonal, so the new level solves the
        # tridiagonal system over all N+1 nodes
        ops = assemble_operators(bench_spec(rate=0.1), BENCH_MERTON, GridSpec())
        sub, diag, sup = -0.9, 2.5, -0.2
        band = np.zeros((3, ops.grid.n_space - 1))
        band[0, 1:], band[1], band[2, :-1] = sup, diag, sub
        *band_lu, info = dgttrf(band[2, :-1], band[1], band[0, 1:])
        assert info == 0
        lo, hi = 3.0, 5.0
        ops = replace(
            ops, band=band, band_lu=tuple(band_lu), edge_level=(lo, hi), edge_growth=(0.0, 0.0)
        )
        xs, tau = ops.xs, 0.3
        u, u_before = np.cos(3.0 * xs), np.sin(2.0 * xs)
        got, _ = step_imex(u, ops, tau, StepHistory(u_before, u_before[1:-1], STRIKE))
        b = u[1:-1] + ops.dt * _explicit_term(u, ops, tau)
        rhs = 2.0 * b - u_before[1:-1] + 0.5 * u_before[1:-1]
        assert (got[0], got[-1]) == (lo, hi)
        lhs = sub * got[:-2] + diag * got[1:-1] + sup * got[2:]
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

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

    @pytest.mark.parametrize(
        "model", [NoJumps(), BENCH_MERTON, BENCH_VG], ids=["none", "merton", "vg"]
    )
    def test_second_order_in_time(self, model):
        # at N = 400, halving dt cuts the change in price about fourfold
        spec = bench_spec(rate=0.1)
        S = grid_spots()
        prices = [
            solve_european(spec, model, GridSpec(n_time=m)).price_at(0.0, S)
            for m in (25, 50, 100, 200)
        ]
        diffs = [np.max(np.abs(b - a)) for a, b in zip(prices, prices[1:])]
        assert diffs[0] / diffs[1] >= 3.6
        assert diffs[1] / diffs[2] >= 3.6

    @pytest.mark.parametrize("model", [NoJumps(), BENCH_MERTON], ids=["none", "merton"])
    def test_within_1e_3_of_the_oracle_at_1600x800(self, model):
        # the refinement ladder's 1e-3 tolerance is met one rung below 3200x1600
        spec = bench_spec(rate=0.1)
        S = grid_spots()
        if model == NoJumps():
            ref = bs_price(spec, S)
        else:
            ref = np.array([merton_series_price(spec, model, s) for s in S])
        surface = solve_european(spec, model, GridSpec(n_space=1600, n_time=800))
        assert np.max(np.abs(surface.price_at(0.0, S) - ref)) <= 1e-3

    def test_gates_on_integrability(self):
        with pytest.raises(ValueError, match="integrability"):
            solve_european(bench_spec(), CGMY(c=0.5, g=6.0, m=8.0, y=2.5), GridSpec())

    # frozen put prices at r = 0.1: a change to the step, the tridiagonal
    # solve or the jump apply (direct and FFT) shows here first
    @pytest.mark.parametrize(
        "model, grid, spot, price",
        [
            (NoJumps(), GridSpec(), 85.2144, 10.9435116687346),
            (NoJumps(), GridSpec(), 100.0, 4.761060790188232),
            (BENCH_MERTON, GridSpec(), 85.2144, 11.240491523807014),
            (BENCH_MERTON, GridSpec(), 100.0, 5.156907010776201),
            (BENCH_VG, GridSpec(), 85.2144, 15.63302424633228),
            (BENCH_VG, GridSpec(), 100.0, 10.060021997831404),
            (BENCH_MERTON, FFT_GRID, 85.2144, 11.24490897699106),
            (BENCH_MERTON, FFT_GRID, 100.0, 5.1638159010918905),
        ],
        ids=[
            "none-85.2144", "none-100", "merton-85.2144", "merton-100",
            "vg-85.2144", "vg-100", "merton-fft-85.2144", "merton-fft-100",
        ],
    )
    def test_frozen_prices(self, model, grid, spot, price):
        surface = solve_european(bench_spec(rate=0.1), model, grid)
        assert surface.price_at(0.0, spot) == pytest.approx(price, rel=1e-10, abs=0.0)


class TestTwoLevelMarch:
    @pytest.mark.parametrize("grid", [GridSpec(), FFT_GRID], ids=["direct", "fft"])
    @pytest.mark.parametrize(
        "model", [NoJumps(), BENCH_MERTON, BENCH_VG], ids=["none", "merton", "vg"]
    )
    def test_keeps_the_full_surfaces_end_levels_bit_for_bit(self, model, grid):
        spec = bench_spec(rate=0.1)
        full = solve_european(spec, model, grid)
        two = solve_european(spec, model, grid, keep_levels=False)
        assert_last_level_surface(full, two)

    def test_traces_under_a_tenth_of_the_full_surface(self):
        grid = GridSpec(n_space=1600, n_time=800)
        surface_bytes = (grid.n_time + 1) * (grid.n_space + 1) * 8
        tracemalloc.start()
        try:
            solve_european(bench_spec(rate=0.1), BENCH_MERTON, grid, keep_levels=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * surface_bytes


class TestLockstep:
    """k jobs marched as the rows of one array: each row is its own solve."""

    @pytest.mark.parametrize(
        "grid", [GridSpec(), GridSpec(n_space=1600, n_time=800)], ids=["direct", "fft"]
    )
    @pytest.mark.parametrize(
        "models", [(BENCH_MERTON, BENCH_VG), (NoJumps(), NoJumps())], ids=["merton-vg", "none"]
    )
    def test_rows_are_solo_solves_bit_for_bit(self, grid, models):
        jobs = [(bench_spec(rate=rate), model) for rate, model in zip(RATES, models)]
        rows = [assemble_operators(spec, model, grid) for spec, model in jobs]
        full = _march(rows)
        two = _march(rows, keep_levels=False)
        for (spec, model), ops, f, t in zip(jobs, rows, full, two):
            solo = solve_european(spec, model, grid)
            assert f.ops is ops and t.ops is ops
            assert f.u.tobytes() == solo.u.tobytes()
            assert f.taus.tobytes() == solo.taus.tobytes()
            assert t.u.tobytes() == solo.u[[0, -1]].tobytes()
            assert t.taus.tobytes() == solo.taus[[0, -1]].tobytes()

    def test_a_guard_trip_names_its_row_with_the_solo_message(self):
        grid = GridSpec()
        calm = assemble_operators(bench_spec(), BENCH_MERTON, grid)
        stiff = assemble_operators(bench_spec(rate=0.1), CGMY(c=1.0, g=6.0, m=8.0, y=1.5), grid)
        with pytest.raises(GrowthGuardError) as solo:
            _march([stiff])
        with pytest.raises(GrowthGuardError) as batch:
            _march([calm, stiff])
        assert (solo.value.row, batch.value.row) == (0, 1)
        assert str(batch.value) == str(solo.value)

    def test_a_guard_trip_survives_pickling(self):
        # a march in a pool's child process returns its error by pickle
        grid = GridSpec()
        calm = assemble_operators(bench_spec(), BENCH_MERTON, grid)
        stiff = assemble_operators(bench_spec(rate=0.1), CGMY(c=1.0, g=6.0, m=8.0, y=1.5), grid)
        with pytest.raises(GrowthGuardError) as batch:
            _march([calm, stiff])
        copy = pickle.loads(pickle.dumps(batch.value))
        assert type(copy) is GrowthGuardError
        assert (str(copy), copy.row) == (str(batch.value), 1)

    @pytest.mark.parametrize(
        "spec, model, grid",
        [
            (bench_spec(sigma=0.3), BENCH_MERTON, GridSpec()),
            (bench_spec(), NoJumps(), GridSpec()),
            (bench_spec(), BENCH_MERTON, GridSpec(n_time=100)),
            (OptionSpec(strike=90.0, expiry=1.0, rate=0.0, sigma=0.23, kind="put"),
             BENCH_MERTON, GridSpec()),
        ],
        ids=["sigma", "jump-reach", "time-step", "strike"],
    )
    def test_refuses_rows_that_cannot_share_a_step(self, spec, model, grid):
        base = assemble_operators(bench_spec(), BENCH_MERTON, GridSpec())
        with pytest.raises(ValueError, match="lockstep batch needs"):
            _march([base, assemble_operators(spec, model, grid)])

    @pytest.mark.parametrize("which", ["step", "start"])
    def test_refuses_rows_whose_bands_differ(self, which):
        # the rows agree in grid, dt, sigma, strike and kernel length; only
        # the factored band of the step or of the start tells them apart
        base = assemble_operators(bench_spec(), BENCH_MERTON, GridSpec())
        other = assemble_operators(bench_spec(sigma=0.3), BENCH_MERTON, GridSpec())
        step, start = (other, base) if which == "step" else (base, other)
        row = replace(base, band=step.band, band_lu=step.band_lu)
        row.start = replace(base.start, band=start.start.band, band_lu=start.start.band_lu)
        with pytest.raises(ValueError, match="lockstep batch needs"):
            Lockstep.of([base, row])
        assert Lockstep.key(row) != Lockstep.key(base)

    def test_refuses_a_row_with_a_sweep(self):
        # a sweep is one job's own, so its row marches alone
        ops = assemble_operators(bench_spec(), BENCH_MERTON, GridSpec())
        swept = replace(ops, sweep=lambda *args: None)
        for rows in ([swept, swept], [ops, swept], [swept]):
            with pytest.raises(ValueError, match="no row with a sweep"):
                Lockstep.of(rows)
        with pytest.raises(ValueError, match="no row with a sweep"):
            _march([swept, swept])
        assert Lockstep.key(swept) != Lockstep.key(ops)


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

    def test_a_two_level_surface_refuses_the_times_between(self, merton_surfaces):
        # it holds t = 0 and t = T alone, so no other t has a level to read
        full = merton_surfaces[0.1]
        two = solve_european(bench_spec(rate=0.1), BENCH_MERTON, GridSpec(), keep_levels=False)
        for t in (0.4, 0.5, 1e-6, 1.0 - 1e-6):
            with pytest.raises(ValueError, match="holds only t = 0 and t = 1"):
                two.price_at(t, 100.0)
        for t in (0.0, 1e-13, 1.0):
            assert two.price_at(t, 100.0) == full.price_at(t, 100.0)

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
        surface.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "tau,x,u"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        # tau is the outer loop, x the inner one
        taus, xs, u = rows.T.reshape(3, *surface.u.shape)
        assert np.allclose(taus, surface.taus[:, None], rtol=1e-8, atol=1e-12)
        assert np.allclose(xs, surface.xs[None, :], rtol=1e-8, atol=1e-12)
        assert np.allclose(u, surface.u, rtol=1e-8, atol=1e-8)
