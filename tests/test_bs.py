"""Closed-form diffusion prices, the normal CDF they call, and the transformed
closed form."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtr

from conftest import TABLE_SPOTS, bench_spec
from levypide.bs import OptionSpec, bs_price, payoff, u_bs

# Reference-table put prices for sigma = 0.12 (the volatility consistent with
# the published diffusion column; see the sigma recalibration note in README).
BS12_TABLE = {
    0.0: (15.2547, 12.2484, 9.42895, 6.90902, 4.78444, 3.1099, 1.88555, 1.0604),
    0.1: (7.35166, 5.24145, 3.51944, 2.21106, 1.29196, 0.69843, 0.34773, 0.15881),
}


class TestOptionSpec:
    @pytest.mark.parametrize(
        "kw",
        [
            {"strike": 0.0},
            {"expiry": 0.0},
            {"rate": -0.01},
            {"sigma": 0.0},
            {"kind": "straddle"},
        ],
    )
    def test_rejects_invalid_fields(self, kw):
        base = {"strike": 100.0, "expiry": 1.0, "rate": 0.0, "sigma": 0.2, "kind": "put"}
        with pytest.raises(ValueError):
            OptionSpec(**{**base, **kw})


class TestNormCdf:
    """scipy's ndtr is the CDF inside bs_price; these oracles guard it."""

    def test_symmetry_point(self):
        assert ndtr(0.0) == 0.5

    def test_saturates_at_large_argument(self):
        assert ndtr(40.0) == 1.0

    def test_reference_point(self):
        # 0.545779 to six figures when rounded the usual way is off by 1.6e-6;
        # the oracle value is 0.5457774390
        assert ndtr(0.115) == pytest.approx(0.54577743897781, abs=1e-12)

    def test_small_argument_taylor_oracle(self):
        # N(d) = 1/2 + phi(0) (d - d^3/6 + d^5/40 - ...), 30 terms
        for d in (-0.5, -0.115, 0.02, 0.115, 0.4):
            term, total = d, d
            for n in range(1, 30):
                term *= -d * d * (2 * n - 1) / (2.0 * n * (2 * n + 1))
                total += term
            oracle = 0.5 + total / math.sqrt(2.0 * math.pi)
            assert ndtr(d) == pytest.approx(oracle, abs=1e-14)

    def test_matches_arbitrary_precision_erf(self):
        for d in np.linspace(-8.0, 8.0, 81):
            oracle = float(0.5 * mpmath.erfc(-mpmath.mpf(float(d)) / mpmath.sqrt(2)))
            assert abs(ndtr(d) - oracle) < 1e-12

    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_complement_identity(self, d):
        assert ndtr(d) + ndtr(-d) == pytest.approx(1.0, abs=1e-15)

    def test_monotone(self):
        vals = ndtr(np.linspace(-12.0, 12.0, 2001))
        assert np.all(np.diff(vals) >= 0.0)

    def test_derivative_is_gaussian_density(self):
        h = 1e-5
        for d in np.linspace(-3.0, 3.0, 25):
            fd = (ndtr(d + h) - ndtr(d - h)) / (2.0 * h)
            pdf = math.exp(-d * d / 2.0) / math.sqrt(2.0 * math.pi)
            assert fd == pytest.approx(pdf, abs=1e-6)


class TestPayoff:
    def test_put_and_call_kinks(self):
        put = bench_spec()
        call = bench_spec(kind="call")
        assert payoff(put, 85.0) == pytest.approx(15.0)
        assert payoff(put, 115.0) == 0.0
        assert payoff(call, 115.0) == pytest.approx(15.0)
        assert payoff(call, 85.0) == 0.0


class TestBsPrice:
    def test_recalibrated_at_the_money_value(self):
        spec = bench_spec(rate=0.0, sigma=0.12)
        assert bs_price(spec, 100.0) == pytest.approx(4.7844365308, rel=1e-9)
        assert bs_price(spec, 100.0) == pytest.approx(4.78444, abs=1e-5)

    def test_at_the_money_with_rate(self):
        spec = bench_spec(rate=0.1, sigma=0.12)
        assert bs_price(spec, 100.0) == pytest.approx(1.29196, abs=5e-3)

    @pytest.mark.parametrize("rate", sorted(BS12_TABLE))
    def test_reference_table_column(self, rate):
        spec = bench_spec(rate=rate, sigma=0.12)
        for s, expect in zip(TABLE_SPOTS, BS12_TABLE[rate]):
            assert bs_price(spec, s) == pytest.approx(expect, abs=5e-3)

    def test_deep_out_of_the_money_put(self):
        assert bs_price(bench_spec(), 1e6) == pytest.approx(0.0, abs=1e-10)

    def test_call_equals_put_at_the_money_without_rate(self):
        put = bench_spec(rate=0.0)
        call = bench_spec(rate=0.0, kind="call")
        assert bs_price(call, 100.0) == pytest.approx(bs_price(put, 100.0), rel=1e-12)

    def test_rejects_bad_domain(self):
        spec = bench_spec()
        with pytest.raises(ValueError):
            bs_price(spec, 0.0)
        with pytest.raises(ValueError):
            bs_price(spec, 100.0, t=1.0)

    def test_put_call_parity_grid(self):
        for rate in (0.0, 0.03, 0.1):
            put = bench_spec(rate=rate)
            call = bench_spec(rate=rate, kind="call")
            for t in np.linspace(0.0, 0.9, 10):
                tau = put.expiry - t
                S = np.linspace(40.0, 250.0, 50)
                gap = (
                    bs_price(call, S, t)
                    - bs_price(put, S, t)
                    - S
                    + put.strike * math.exp(-rate * tau)
                )
                assert np.max(np.abs(gap)) < 1e-10

    def test_monotonicity_in_spot(self):
        S = np.linspace(40.0, 250.0, 50)
        assert np.all(np.diff(bs_price(bench_spec(rate=0.1), S)) <= 1e-12)
        assert np.all(np.diff(bs_price(bench_spec(rate=0.1, kind="call"), S)) >= -1e-12)

    def test_call_dominates_forward_intrinsic(self):
        spec = bench_spec(rate=0.1, kind="call")
        S = np.linspace(40.0, 250.0, 50)
        floor = np.maximum(S - spec.strike * math.exp(-spec.rate * spec.expiry), 0.0)
        assert np.all(bs_price(spec, S) >= floor - 1e-12)

    def test_vectorized_matches_scalar(self):
        spec = bench_spec(rate=0.1)
        S = np.array([80.0, 100.0, 125.0])
        vec = bs_price(spec, S)
        for s, v in zip(S, vec):
            assert bs_price(spec, float(s)) == pytest.approx(v, rel=1e-15)


class TestTransformedSolution:
    def test_zero_tau_equals_payoff_exactly(self):
        spec = bench_spec(rate=0.1)
        xs = np.linspace(-2.0, 2.0, 101)
        out = u_bs(spec, 0.0, xs)
        expect = payoff(spec, spec.strike * np.exp(xs))
        assert np.array_equal(out, expect)

    def test_at_the_money_terminal_value(self):
        spec = bench_spec(rate=0.0, sigma=0.12)
        assert u_bs(spec, 1.0, 0.0) == pytest.approx(4.78444, abs=1e-5)

    def test_far_right_vanishes(self):
        assert u_bs(bench_spec(), 0.5, 10.0) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_tau_outside_lifetime(self):
        with pytest.raises(ValueError):
            u_bs(bench_spec(), 1.5, 0.0)

    def test_solves_drift_diffusion_equation(self):
        # central differences on the closed form; truncation stays below 1e-4
        spec = bench_spec(rate=0.1)
        hx, ht = 2.5e-4, 1e-4
        sig2h = 0.5 * spec.sigma**2
        for tau in (0.05, 0.1, 0.3, 0.7, 0.95):
            for x in np.linspace(-0.5, 0.5, 21):
                u0 = u_bs(spec, tau, x)
                up, um = u_bs(spec, tau, x + hx), u_bs(spec, tau, x - hx)
                ux = (up - um) / (2.0 * hx)
                uxx = (up - 2.0 * u0 + um) / hx**2
                ut = (u_bs(spec, tau + ht, x) - u_bs(spec, tau - ht, x)) / (2.0 * ht)
                residual = ut - sig2h * uxx - (spec.rate - sig2h) * ux
                assert abs(residual) < 1e-4
