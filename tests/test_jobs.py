"""The job pipeline: planning, lockstep batches, the process pool, failure
isolation, the static-bound verdict and the structural warning."""
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from conftest import ALL_JUMP_MODELS, BENCH_MERTON, BENCH_VG, bench_spec
from levypide import Job, jobs, levy, price_jobs
from levypide.american import PenaltyConfig, StructuralWarning, penalized_operators
from levypide.bs import OptionSpec, bs_price
from levypide.levy import CGMY, Merton, VarianceGamma
from levypide.oracle import merton_series_price
from levypide.pide import (
    GridSpec,
    GrowthGuardError,
    PriceSurface,
    assemble_operators,
    price_at,
    solve_european,
)

# sigma = 0.442, r = 0: the explicit small-jump stencil grows slowly enough
# (dt*c_loc/dx^2 = 0.605 on the default grid) to pass the growth guard, and
# the put prices at -154.411
NEGATIVE_CGMY = Job(
    OptionSpec(strike=100.0, expiry=1.0, rate=0.0, sigma=0.442, kind="put"),
    CGMY(c=0.45894, g=19.342, m=13.666, y=1.3478),
    GridSpec(),
    (100.0,),
)


class TestPriceJobs:
    def test_a_price_outside_the_static_bounds_is_the_jobs_error(self):
        [out] = price_jobs([NEGATIVE_CGMY])
        assert isinstance(out, RuntimeError)
        assert str(out).startswith("price -154.411 at S = 100 leaves the static lower bound")
        assert "dt*W = 0.457" in str(out) and "dt*c_loc/dx^2 = 0.605" in str(out)

    def test_every_job_has_its_own_outcome(self):
        spec = bench_spec(rate=0.1)
        spots = (90.0, 100.0, 110.0)
        inadmissible = VarianceGamma(a=0.5, b=1.2, c=1.0)
        outcomes = price_jobs(
            [
                Job(spec, None, GridSpec(), spots),
                NEGATIVE_CGMY,
                Job(spec, inadmissible, GridSpec(), spots),
                Job(spec, BENCH_MERTON, GridSpec(), spots),
            ]
        )
        closed, negative, refused, merton = outcomes
        assert closed.surface is None
        assert closed.prices.tobytes() == bs_price(spec, np.array(spots)).tobytes()
        assert isinstance(negative, RuntimeError)
        assert isinstance(refused, ValueError) and "not admissible" in str(refused)
        solo = solve_european(spec, BENCH_MERTON, GridSpec(), keep_levels=False)
        assert merton.prices.tobytes() == price_at(solo, 0.0, np.array(spots)).tobytes()
        assert merton.surface.u.tobytes() == solo.u.tobytes()

    def test_a_job_without_spots_has_its_surface_alone(self):
        [out] = price_jobs([Job(bench_spec(rate=0.1), BENCH_MERTON, GridSpec(100, 50), ())])
        assert out.prices.shape == (0,) and isinstance(out.surface, PriceSurface)

    @pytest.mark.parametrize("keep_levels, levels", [(False, 2), (True, 51)])
    def test_keep_levels(self, keep_levels, levels):
        grid = GridSpec(n_space=100, n_time=50)
        european = Job(bench_spec(rate=0.1), BENCH_MERTON, grid, (100.0,))
        american = Job(bench_spec(rate=0.1), BENCH_MERTON, grid, (100.0,), PenaltyConfig())
        outcomes = price_jobs([european, american], keep_levels)
        assert [len(out.surface.taus) for out in outcomes] == [levels, levels]

    def test_the_merton_corner_prices_against_the_series(self):
        # |m|/delta = 40: the witness's c0 underflowed to 0 and assembly refused
        # the measure
        spec = OptionSpec(strike=100.0, expiry=1.0, rate=0.05, sigma=0.2, kind="put")
        model = Merton(lam=1.0, m=-0.8, delta=0.02)
        [out] = price_jobs([Job(spec, model, GridSpec(n_space=1600, n_time=200), (100.0,))])
        series = merton_series_price(spec, model, 100.0)
        assert abs(out.prices[0] - series) < 1e-3

    def test_american_jobs_warn_once_each_in_job_order(self):
        grid = GridSpec(n_space=100, n_time=50)
        american = [
            Job(bench_spec(rate=r), BENCH_VG, grid, (100.0,), PenaltyConfig()) for r in (0.0, 0.1)
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcomes = price_jobs(american)
        assert all(out.surface is not None for out in outcomes)
        assert [w.category for w in caught] == [StructuralWarning] * 2
        # attributed to the line that called price_jobs, not to the library
        assert [w.filename for w in caught] == [__file__] * 2
        first, second = (str(w.message) for w in caught)
        assert first.startswith("structural condition violated") and "vs rate 0)" in first
        assert second.startswith("structural condition violated") and "vs rate 0.1)" in second

    def test_a_narrow_lognormal_budget_raises_no_structural_warning(self):
        # lam (e^(m + delta^2/2) - 1) = 0.0649 <= r = 0.1
        job = Job(bench_spec(rate=0.1), Merton(lam=0.1, m=0.5, delta=0.0005),
                  GridSpec(100, 50), (100.0,), PenaltyConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("error", StructuralWarning)
            [out] = price_jobs([job])
        assert out.surface is not None

    @pytest.mark.filterwarnings("ignore::levypide.american.StructuralWarning")
    @pytest.mark.parametrize("family", sorted(ALL_JUMP_MODELS))
    def test_a_solve_runs_no_measure_quadrature(self, monkeypatch, family):
        # assembly refuses on the shape witness alone, and an American job's
        # structural check is the family's closed form
        model, grid, spec = ALL_JUMP_MODELS[family], GridSpec(100, 50), bench_spec(rate=0.1)
        batch = [Job(spec, model, grid, (90.0, 100.0)),
                 Job(spec, model, grid, (90.0, 100.0), PenaltyConfig())]

        def solve():
            ops = assemble_operators(spec, model, grid)
            return [ops.explicit.kernel, *(out.surface.u for out in price_jobs(batch))]

        plain = solve()

        def no_check(model):
            raise AssertionError("a solve ran the integrability check")

        def no_quad(*args, **kwargs):
            raise AssertionError("a solve ran a measure quadrature")

        monkeypatch.setattr(levy, "integrability_check", no_check)
        monkeypatch.setattr(integrate, "quad", no_quad)
        assert [a.tobytes() for a in solve()] == [a.tobytes() for a in plain]

    @pytest.mark.parametrize(
        "raw, message",
        [("abc", "must be an integer, got 'abc'"), ("0", "must be >= 1, got 0"),
         ("-2", "must be >= 1, got -2")],
    )
    def test_a_bad_worker_count_is_refused_before_any_job_is_planned(
        self, monkeypatch, raw, message
    ):
        monkeypatch.setenv("LEVYPIDE_WORKERS", raw)
        job = Job(bench_spec(), BENCH_VG, GridSpec(100, 50), (100.0,), PenaltyConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^LEVYPIDE_WORKERS {message}$"):
                price_jobs([job])

    def test_pooled_outcomes_are_the_inline_ones(self, monkeypatch, pooled):
        grid = GridSpec(n_space=100, n_time=50)
        batch = [
            Job(bench_spec(rate=r), model, grid, (90.0, 100.0), penalty)
            for r in (0.0, 0.1)
            for model in (BENCH_MERTON, CGMY(c=1.0, g=6.0, m=8.0, y=1.5))
            for penalty in (None, PenaltyConfig(epsilon=1e-2))
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StructuralWarning)
            pooled_outcomes = price_jobs(batch, keep_levels=True)
            monkeypatch.setenv("LEVYPIDE_WORKERS", "1")
            inline = price_jobs(batch, keep_levels=True)
        for a, b in zip(pooled_outcomes, inline):
            if isinstance(a, Exception):
                assert type(a) is type(b) and str(a) == str(b)
            else:
                assert a.prices.tobytes() == b.prices.tobytes()
                assert a.surface.u.tobytes() == b.surface.u.tobytes()
        # every CGMY y = 1.5 job trips the growth guard, European or American
        failed = [type(out) for out in inline if isinstance(out, Exception)]
        assert failed == [GrowthGuardError] * 4


class TestStaticBounds:
    @pytest.mark.parametrize("kind", ["put", "call"])
    def test_static_bounds_allow_k_dx_squared(self, kind):
        spec = OptionSpec(strike=100.0, expiry=1.0, rate=0.1, sigma=0.23, kind=kind)
        ops = assemble_operators(spec, BENCH_MERTON, GridSpec())
        spots = np.array([60.0, 100.0, 160.0])
        discounted = 100.0 * math.exp(-0.1)
        if kind == "put":
            lower, upper = np.maximum(discounted - spots, 0.0), np.full(3, discounted)
        else:
            lower, upper = np.maximum(spots - discounted, 0.0), spots
        slack = 0.9 * 100.0 * GridSpec().dx ** 2
        jobs._check_static_bounds(ops, spots, lower - slack)
        jobs._check_static_bounds(ops, spots, upper + slack)
        with pytest.raises(RuntimeError, match="at S = 160 leaves the static upper bound"):
            jobs._check_static_bounds(ops, spots, upper + np.array([0.0, slack, 3 * slack]))
        with pytest.raises(RuntimeError, match="at S = 60 leaves the static lower bound"):
            jobs._check_static_bounds(ops, spots, lower - np.array([3 * slack, slack, 0.0]))


class TestLockstepJobs:
    """European jobs whose operators share one pide.Lockstep.key march as
    the rows of one batch; a failing row does not change the others'
    outcomes."""

    @pytest.mark.filterwarnings("ignore::levypide.american.StructuralWarning")
    @pytest.mark.parametrize(
        "workers, cpus, batches",
        [("1", 2, [2]), ("2", 1, [2]), ("2", 2, [1, 1]), ("3", 2, [1, 1])],
    )
    def test_batches_are_capped_by_workers_and_cpus(self, monkeypatch, workers, cpus, batches):
        monkeypatch.setenv("LEVYPIDE_WORKERS", workers)
        monkeypatch.setattr(jobs, "_cpu_count", lambda: cpus)
        limit = jobs._worker_limit()
        european = [
            assemble_operators(bench_spec(rate=r), BENCH_MERTON, GridSpec(100, 50))
            for r in (0.0, 0.1)
        ]
        tasks = jobs._tasks(dict(enumerate(european)), limit)
        assert [len(idx) for idx in tasks] == batches
        assert [i for idx in tasks for i in idx] == [0, 1]
        # each American job's operators carry its own penalty sweep, so it is
        # a batch of one whatever the worker and CPU counts
        american = [
            jobs._plan(Job(bench_spec(rate=r), BENCH_MERTON, GridSpec(100, 50),
                           (100.0,), PenaltyConfig()))
            for r in (0.0, 0.1)
        ]
        assert jobs._tasks(dict(enumerate(american)), limit) == [[0], [1]]

    def test_a_batch_reports_its_first_failing_job_in_job_order(self):
        # the second job trips the guard at the first step, the first one at
        # the tenth: the batch fails on row 1, and the first job, marched again
        # alone, fails with the message of its own solo march
        rows = [
            assemble_operators(bench_spec(), CGMY(c=1.0, g=6.0, m=8.0, y=y), GridSpec())
            for y in (1.2, 1.8)
        ]
        batch = jobs._march_task(rows, False)
        solo = [jobs._march_task([ops], False)[0] for ops in rows]
        assert all(isinstance(out, GrowthGuardError) for out in [*batch, *solo])
        assert [str(out) for out in batch] == [str(out) for out in solo]

    def test_rows_before_a_failing_row_keep_their_solo_surfaces(self):
        grid = GridSpec()
        rows = [
            assemble_operators(bench_spec(), model, grid)
            for model in (BENCH_MERTON, CGMY(c=1.0, g=6.0, m=8.0, y=1.5))
        ]
        calm, stiff = jobs._march_task(rows, False)
        assert isinstance(calm, PriceSurface) and isinstance(stiff, GrowthGuardError)
        assert "stability envelope" in str(stiff)
        solo = solve_european(bench_spec(), BENCH_MERTON, grid, keep_levels=False)
        assert calm.u.tobytes() == solo.u.tobytes()

    def test_rows_after_a_failing_row_keep_their_solo_surfaces(self):
        grid = GridSpec()
        models = (CGMY(c=1.0, g=6.0, m=8.0, y=1.5), BENCH_MERTON, BENCH_VG)
        stiff, *calm = jobs._march_task(
            [assemble_operators(bench_spec(), model, grid) for model in models], False
        )
        assert isinstance(stiff, GrowthGuardError)
        for model, surface in zip(models[1:], calm):
            solo = solve_european(bench_spec(), model, grid, keep_levels=False)
            assert surface.u.tobytes() == solo.u.tobytes()


class TestMarchPool:
    def test_the_crossover_counts_node_steps_whatever_the_style(self, monkeypatch):
        grid = GridSpec(n_space=100, n_time=50)
        european = assemble_operators(bench_spec(), BENCH_MERTON, grid)
        american = penalized_operators(bench_spec(), BENCH_MERTON, grid, PenaltyConfig())
        for planned in ({0: european, 1: european}, {0: american, 1: american}):
            monkeypatch.setattr(jobs, "_POOL_MIN_WORK", 101 * 50 * 2 + 1)
            assert jobs._processes(planned, 2) == 1
            monkeypatch.setattr(jobs, "_POOL_MIN_WORK", 101 * 50 * 2)
            assert jobs._processes(planned, 2) == 2
