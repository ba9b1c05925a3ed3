"""Series benchmark and Monte Carlo cross-checks.

Monte Carlo assertions use fixed seeds, so every z-score below is
deterministic; the 3-sigma bands were checked against the observed draws
before freezing.
"""
import numpy as np
import pytest

from conftest import (
    BENCH_CGMY,
    BENCH_KOU,
    BENCH_MERTON,
    BENCH_NIG,
    BENCH_VG,
    TABLE_SPOTS,
    bench_spec,
)
from levypide.bs import bs_price
from levypide.levy import Merton, NoJumps, VarianceGamma
from levypide.oracle import (
    McConfig,
    McResult,
    mc_discounted_forward,
    mc_price,
    merton_series_price,
)
from levypide.pide import GridSpec, solve_european

# Poisson-mixture reference rows at the table spots, sigma = 0.23, jumps
# (0.1, -0.2, 0.15); frozen from this oracle after the solver cross-check.
SERIES_ROWS = {
    0.0: (18.050932, 15.698647, 13.479334, 11.419123, 9.539120, 7.854236, 6.371955, 5.092901),
    0.1: (11.245186, 9.460543, 7.846426, 6.413134, 5.164257, 4.096945, 3.202321, 2.467070),
}


class TestMcConfig:
    @pytest.mark.parametrize("n_paths", [1, 0])
    def test_rejects_invalid(self, n_paths):
        with pytest.raises(ValueError, match="n_paths"):
            McConfig(n_paths=n_paths)


class TestSeriesPrice:
    def test_no_jumps_collapses_to_closed_form(self):
        spec = bench_spec(rate=0.1)
        quiet = Merton(lam=0.0, m=-0.2, delta=0.15)
        assert merton_series_price(spec, quiet, 96.0) == bs_price(spec, 96.0)

    @pytest.mark.parametrize("rate", sorted(SERIES_ROWS))
    def test_frozen_reference_rows(self, rate):
        spec = bench_spec(rate=rate)
        for s, expect in zip(TABLE_SPOTS, SERIES_ROWS[rate]):
            assert merton_series_price(spec, BENCH_MERTON, s) == pytest.approx(
                expect, abs=5e-7
            )

    @pytest.mark.parametrize("rate", (0.0, 0.1))
    def test_jumps_add_put_value(self, rate):
        spec = bench_spec(rate=rate)
        for s in TABLE_SPOTS:
            assert merton_series_price(spec, BENCH_MERTON, s) > bs_price(spec, s) + 0.2

    def test_rejects_other_jump_families(self):
        with pytest.raises(TypeError):
            merton_series_price(bench_spec(), BENCH_KOU, 100.0)


class TestMcPrice:
    def test_pure_diffusion_matches_closed_form(self):
        spec = bench_spec(rate=0.1)
        res = mc_price(spec, NoJumps(), 100.0, McConfig(seed=3))
        assert isinstance(res, McResult)
        assert res.n_paths == 100_000
        assert abs(res.price - bs_price(spec, 100.0)) <= 3.0 * res.stderr

    def test_lognormal_jumps_match_series(self):
        spec = bench_spec(rate=0.0)
        res = mc_price(spec, BENCH_MERTON, 100.0, McConfig(seed=7))
        assert abs(res.price - merton_series_price(spec, BENCH_MERTON, 100.0)) <= 3.0 * res.stderr

    def test_subordinated_model_matches_solver(self):
        spec = bench_spec(rate=0.0)
        res = mc_price(spec, BENCH_VG, 100.0, McConfig(seed=13))
        surf = solve_european(spec, BENCH_VG, GridSpec())
        gap = abs(res.price - surf.price_at(0.0, 100.0))
        assert gap <= max(0.15, 3.0 * res.stderr)

    def test_same_seed_is_bitwise_reproducible(self):
        spec = bench_spec(rate=0.0)
        a = mc_price(spec, BENCH_MERTON, 100.0, McConfig(seed=5))
        b = mc_price(spec, BENCH_MERTON, 100.0, McConfig(seed=5))
        assert a.price == b.price and a.stderr == b.stderr

    def test_different_seed_moves_the_estimate(self):
        spec = bench_spec(rate=0.0)
        a = mc_price(spec, BENCH_MERTON, 100.0, McConfig(seed=5))
        b = mc_price(spec, BENCH_MERTON, 100.0, McConfig(seed=6))
        assert a.price != b.price

    def test_stderr_scales_with_path_count(self):
        spec = bench_spec(rate=0.0)
        small = mc_price(spec, BENCH_MERTON, 100.0, McConfig(n_paths=50_000, seed=11))
        large = mc_price(spec, BENCH_MERTON, 100.0, McConfig(n_paths=200_000, seed=11))
        assert 1.6 < small.stderr / large.stderr < 2.4

    def test_standard_error_is_calibrated(self):
        # z-scores of 200 seeds against the series: a biased estimator moves
        # their mean off 0, a misstated standard error their spread off 1
        spec = bench_spec(rate=0.1)
        ref = merton_series_price(spec, BENCH_MERTON, 100.0)
        z = []
        for seed in range(200):
            res = mc_price(spec, BENCH_MERTON, 100.0, McConfig(n_paths=20_000, seed=seed))
            z.append((res.price - ref) / res.stderr)
        assert abs(np.mean(z)) <= 0.25
        assert 0.8 <= np.std(z, ddof=1) <= 1.2

    def test_rejects_nonpositive_spot(self):
        with pytest.raises(ValueError, match="spot"):
            mc_price(bench_spec(), BENCH_MERTON, 0.0)

    @pytest.mark.parametrize("model", [BENCH_KOU, BENCH_NIG, BENCH_CGMY])
    def test_unsupported_families_raise(self, model):
        with pytest.raises(NotImplementedError):
            mc_price(bench_spec(), model, 100.0, McConfig(n_paths=100))

    def test_rejects_divergent_exponential_moment(self):
        # b - a <= 1 makes E[e^Z] infinite; no martingale drift exists
        heavy = VarianceGamma(a=0.0, b=0.9, c=1.0)
        with pytest.raises(ValueError, match="exponential moment"):
            mc_price(bench_spec(), heavy, 100.0, McConfig(n_paths=100))


class TestDiscountedForward:
    @pytest.mark.parametrize("model", [BENCH_MERTON, BENCH_VG], ids=["merton", "vg"])
    def test_martingale_drift(self, model):
        spec = bench_spec(rate=0.1)
        res = mc_discounted_forward(spec, model, 100.0, McConfig(seed=9))
        assert abs(res.price - 100.0) <= 3.0 * res.stderr


# Oracle values to full precision: (price, stderr) at S = 100 for seeds 0 and
# 5 with 20k paths, the discounted forward for seed 9, and the series at three
# table spots.  A changed draw order or sample count moves an estimate by about
# a standard error, which no z-score test above can see.
FROZEN_MC = {
    ("none", 0.0): ((9.222390825755534, 0.0834703228951538),
                    (9.063108703177564, 0.08284176394748544)),
    ("none", 0.1): ((4.809766247046747, 0.05928748282012307),
                    (4.717251711961229, 0.0585508247048322)),
    ("merton", 0.0): ((9.529572111471394, 0.08830589261431418),
                      (9.491923251638719, 0.08833051783892802)),
    ("merton", 0.1): ((5.151663821495432, 0.06442758714443024),
                      (5.144605998942521, 0.06437026531851911)),
    ("vg", 0.0): ((14.799535338429807, 0.1336421268375789),
                  (14.58017282939108, 0.1334682412154958)),
    ("vg", 0.1): ((10.074248326745503, 0.1094703199850498),
                  (9.916548557012202, 0.10931382577241898)),
}
FROZEN_FORWARD = {
    "merton": (100.2029433388323, 0.1726803778019864),
    "vg": (100.0246641393636, 0.2643475543330458),
}
FROZEN_SERIES = {
    0.0: (18.050931973816567, 9.5391201834823, 5.092900842259632),
    0.1: (11.245186348506824, 5.16425713915612, 2.4670700333862),
}
FROZEN_MODELS = {"none": NoJumps(), "merton": BENCH_MERTON, "vg": BENCH_VG}


class TestFrozenValues:
    @pytest.mark.parametrize("name, rate", sorted(FROZEN_MC))
    def test_mc_price(self, name, rate):
        for seed, expect in zip((0, 5), FROZEN_MC[name, rate]):
            res = mc_price(
                bench_spec(rate=rate), FROZEN_MODELS[name], 100.0,
                McConfig(n_paths=20_000, seed=seed),
            )
            assert (res.price, res.stderr) == pytest.approx(expect, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", sorted(FROZEN_FORWARD))
    def test_mc_discounted_forward(self, name):
        res = mc_discounted_forward(
            bench_spec(rate=0.1), FROZEN_MODELS[name], 100.0, McConfig(n_paths=20_000, seed=9)
        )
        assert (res.price, res.stderr) == pytest.approx(FROZEN_FORWARD[name], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("rate", sorted(FROZEN_SERIES))
    def test_merton_series_price(self, rate):
        got = [merton_series_price(bench_spec(rate=rate), BENCH_MERTON, s)
               for s in (85.2144, 100.0, 112.75)]
        assert got == pytest.approx(FROZEN_SERIES[rate], rel=1e-12, abs=0.0)
