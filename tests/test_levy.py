"""Measure families: densities, envelope witnesses, and the integral checks."""
import math
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from scipy import special
from scipy.integrate import quad

from conftest import (
    ALL_JUMP_MODELS,
    BENCH_CGMY,
    BENCH_KOU,
    BENCH_MERTON,
    BENCH_NIG,
    BENCH_VG,
)
from levypide.levy import (
    CGMY,
    NIG,
    Kou,
    Merton,
    NoJumps,
    ShapeParams,
    VarianceGamma,
    density,
    finite_activity,
    integrability_check,
    shape_witness,
    structural_condition_check,
    truncated_second_moment,
)

# Two-sided log-spaced sample of jump sizes, dense near the origin.
Z_GRID = np.concatenate(
    [-np.geomspace(1e-6, 10.0, 5000)[::-1], np.geomspace(1e-6, 10.0, 5000)]
)


# ---------------------------------------------------------------------------
# constructors

class TestConstructors:
    def test_merton_rejects_bad_width(self):
        with pytest.raises(ValueError):
            Merton(lam=0.1, m=0.0, delta=0.0)

    def test_merton_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            Merton(lam=-0.1, m=0.0, delta=0.1)

    def test_merton_accepts_zero_intensity(self):
        # degenerate pure-diffusion case, used by the simulation benchmark
        assert Merton(lam=0.0, m=0.0, delta=0.1).lam == 0.0

    def test_kou_rejects_probability_outside_unit_interval(self):
        with pytest.raises(ValueError):
            Kou(lam=1.0, theta=1.5, lam_plus=10.0, lam_minus=5.0)

    def test_vg_rejects_wide_drift_tilt(self):
        # b > |a| keeps both wings decaying
        with pytest.raises(ValueError):
            VarianceGamma(a=3.0, b=2.0, c=1.0)

    def test_vg_from_time_changed_parameters(self):
        vg = VarianceGamma.from_bm_params(theta=-0.43, kappa=0.27, sigma_vg=0.23)
        assert vg.a == pytest.approx(-8.128544423440454, rel=1e-12)
        assert vg.b == pytest.approx(14.356177746837956, rel=1e-12)
        assert vg.c == pytest.approx(1.0 / 0.27, rel=1e-12)

    def test_vg_parameter_round_trip(self):
        theta, kappa, sigma_vg = BENCH_VG.bm_params()
        assert theta == pytest.approx(-0.43, rel=1e-10)
        assert kappa == pytest.approx(0.27, rel=1e-10)
        assert sigma_vg == pytest.approx(0.23, rel=1e-10)

    def test_cgmy_allows_supercritical_order_for_diagnostics(self):
        # y in [2, 3) constructs so the checks can report its divergence
        assert CGMY(c=0.5, g=6.0, m=8.0, y=2.5).y == 2.5

    def test_cgmy_rejects_order_beyond_diagnostic_range(self):
        with pytest.raises(ValueError):
            CGMY(c=0.5, g=6.0, m=8.0, y=3.2)


# ---------------------------------------------------------------------------
# densities

class TestDensity:
    def test_lognormal_family_peak_value(self):
        # at z = m the Gaussian exponent vanishes: h(m) = lam / (delta sqrt(2 pi))
        val = density(BENCH_MERTON, -0.2)
        assert val == pytest.approx(0.2659615202676218, rel=1e-12)
        assert val == pytest.approx(
            BENCH_MERTON.lam / (BENCH_MERTON.delta * math.sqrt(2 * math.pi)), rel=1e-14
        )

    def test_empty_measure_is_zero(self):
        assert density(NoJumps(), 0.3) == 0.0

    def test_double_exponential_right_limit(self):
        kou = Kou(lam=1.0, theta=0.5, lam_plus=10.0, lam_minus=5.0)
        assert density(kou, 1e-12) == pytest.approx(5.0, rel=1e-9)

    def test_double_exponential_left_wing(self):
        kou = Kou(lam=1.0, theta=0.5, lam_plus=10.0, lam_minus=5.0)
        expect = 1.0 * 0.5 * 5.0 * math.exp(5.0 * -0.1)
        assert density(kou, -0.1) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("model", [BENCH_VG, BENCH_NIG, BENCH_CGMY])
    def test_origin_is_rejected_for_singular_families(self, model):
        with pytest.raises(ValueError):
            density(model, 0.0)
        with pytest.raises(ValueError):
            density(model, np.array([0.5, 0.0]))

    @pytest.mark.parametrize("name", sorted(ALL_JUMP_MODELS))
    def test_vectorized_matches_scalar(self, name):
        model = ALL_JUMP_MODELS[name]
        zs = np.array([-1.3, -0.05, 0.02, 0.7])
        vec = density(model, zs)
        assert vec.shape == zs.shape
        for z, v in zip(zs, vec):
            assert density(model, float(z)) == pytest.approx(v, rel=1e-14)

    @pytest.mark.parametrize("name", sorted(ALL_JUMP_MODELS))
    def test_nonnegative_everywhere(self, name):
        assert np.all(density(ALL_JUMP_MODELS[name], Z_GRID) >= 0.0)

    def test_bessel_family_tail_asymptote(self):
        # K1(t) ~ sqrt(pi/(2t)) e^-t, so h(z) ~ c |z|^(-3/2) e^(az-b|z|) sqrt(pi/2)/sqrt(b)
        for z in (8.0, -8.0):
            h = density(BENCH_NIG, z)
            asym = (
                BENCH_NIG.c
                * abs(z) ** -1.5
                * math.exp(BENCH_NIG.a * z - BENCH_NIG.b * abs(z))
                * math.sqrt(math.pi / 2.0)
                / math.sqrt(BENCH_NIG.b)
            )
            assert h == pytest.approx(asym, rel=2e-2)

    def test_bessel_backend_matches_arbitrary_precision(self):
        # scipy's K1 is the one numerical special function the measure layer
        # leans on; pin it against mpmath over the working argument range
        for x in np.geomspace(1e-6, 50.0, 40):
            assert special.k1(x) == pytest.approx(
                float(mpmath.besselk(1, mpmath.mpf(float(x)))), rel=1e-10
            )


# ---------------------------------------------------------------------------
# envelope witnesses

class TestShapeWitness:
    def test_empty_measure_has_no_witness(self):
        with pytest.raises(ValueError):
            shape_witness(NoJumps())

    def test_gamma_subordinated_wings(self):
        w = shape_witness(BENCH_VG)
        assert w.alpha == 1.0
        assert w.mu == 0.0
        assert w.d_plus == pytest.approx(BENCH_VG.a + BENCH_VG.b)
        assert w.d_minus == pytest.approx(BENCH_VG.a - BENCH_VG.b)

    def test_tempered_stable_order(self):
        assert shape_witness(CGMY(c=0.5, g=6.0, m=8.0, y=0.5)).alpha == 1.5

    def test_lognormal_gaussian_decay(self):
        w = shape_witness(BENCH_MERTON)
        assert w.alpha == 0.0
        assert w.mu == pytest.approx(1.0 / (2.0 * BENCH_MERTON.delta**2))
        assert w.mu > 0

    @pytest.mark.parametrize("name", sorted(ALL_JUMP_MODELS))
    def test_envelope_dominates_density(self, name):
        model = ALL_JUMP_MODELS[name]
        w = shape_witness(model)
        h = density(model, Z_GRID)
        env = w.envelope(Z_GRID)
        assert np.all(h <= env * (1.0 + 1e-9) + 1e-300)

    @pytest.mark.parametrize("name", sorted(ALL_JUMP_MODELS))
    def test_benchmark_models_are_admissible(self, name):
        assert shape_witness(ALL_JUMP_MODELS[name]).admissible

    def test_supercritical_tempered_stable_is_inadmissible(self):
        w = shape_witness(CGMY(c=0.5, g=6.0, m=8.0, y=2.5))
        assert w.alpha == 3.5
        assert not w.admissible

    def test_slow_upward_wing_is_inadmissible(self):
        # lam_plus <= 1 leaves e^z nu(dz) non-integrable on the right
        w = shape_witness(Kou(lam=1.0, theta=0.5, lam_plus=0.9, lam_minus=5.0))
        assert w.d_minus + 1.0 >= 0.0
        assert not w.admissible

    def test_admissibility_truth_table(self):
        mk = lambda **kw: ShapeParams(**{
            "alpha": 1.0, "d_minus": -3.0, "d_plus": 2.0, "mu": 0.0, "c0": 1.0, **kw
        })
        assert mk().admissible
        assert mk(mu=1.0, d_minus=5.0).admissible  # gaussian decay overrides wings
        assert not mk(alpha=3.0).admissible
        assert not mk(d_minus=-1.0).admissible  # boundary case d_minus + 1 = 0
        assert not mk(d_plus=-2.0).admissible

    def test_witness_rejects_invalid_fields(self):
        with pytest.raises(ValueError):
            ShapeParams(alpha=-1.0, d_minus=0.0, d_plus=0.0, mu=0.0, c0=1.0)
        with pytest.raises(ValueError):
            ShapeParams(alpha=0.0, d_minus=0.0, d_plus=0.0, mu=0.0, c0=0.0)

    @pytest.mark.parametrize("field", ["alpha", "d_minus", "d_plus", "mu", "c0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_witness_refuses_non_finite_fields(self, field, bad):
        fields = {"alpha": 1.0, "d_minus": -3.0, "d_plus": 2.0, "mu": 0.0, "c0": 1.0}
        with pytest.raises(ValueError, match="must be finite"):
            ShapeParams(**{**fields, field: bad})

    def test_steep_nig_witness_is_finite_and_dominates(self):
        # b * 32 > 709.78: e^t alone overflows at the end of the certified range
        model = NIG(a=0.0, b=30.0, c=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = shape_witness(model)
            h = density(model, Z_GRID)
            env = w.envelope(Z_GRID)
        assert math.isfinite(w.c0) and w.c0 > 0.0
        assert np.all(h <= env * (1.0 + 1e-9) + 1e-300)

    @pytest.mark.parametrize(
        "model",
        [Merton(lam=1.0, m=-0.8, delta=0.02), Merton(lam=0.1, m=-5.0, delta=0.05),
         NIG(a=0.0, b=1e300, c=1e-200)],
        ids=["merton-corner", "merton-far", "nig-steep"],
    )
    def test_an_underflowing_envelope_constant_is_clamped(self, model):
        # the true c0 is below the smallest positive double; any c0 at or
        # above it still bounds the density
        w = shape_witness(model)
        assert w.c0 == math.ulp(0.0) and w.admissible
        h = density(model, Z_GRID)
        with np.errstate(over="ignore"):  # e^(d z - mu z^2) reaches e^800
            env = w.envelope(Z_GRID)
        assert np.all(h <= env * (1.0 + 1e-9) + 1e-300)

    def test_a_positive_envelope_constant_keeps_its_bits(self):
        # the clamp moves no constant that did not underflow
        lam, m, delta = BENCH_MERTON.lam, BENCH_MERTON.m, BENCH_MERTON.delta
        c0 = lam / (delta * math.sqrt(2.0 * math.pi)) * math.exp(-(m**2) / (2.0 * delta**2))
        assert shape_witness(BENCH_MERTON).c0 == c0


# ---------------------------------------------------------------------------
# activity and mass

class TestActivity:
    def test_classification(self):
        assert finite_activity(NoJumps())
        assert finite_activity(BENCH_MERTON)
        assert finite_activity(BENCH_KOU)
        assert not finite_activity(BENCH_VG)
        assert not finite_activity(BENCH_NIG)
        assert not finite_activity(BENCH_CGMY)

    @pytest.mark.parametrize("model", [BENCH_MERTON, BENCH_KOU], ids=["merton", "kou"])
    def test_total_mass_equals_intensity(self, model):
        mass, _ = quad(lambda z: density(model, z), -np.inf, np.inf, limit=200)
        assert mass == pytest.approx(model.lam, rel=1e-6)


# ---------------------------------------------------------------------------
# small-jump variance

class TestTruncatedSecondMoment:
    FROZEN = {
        "merton": 5.855511168109934e-07,
        "kou": 6.412181481580927e-07,
        "vg": 1.2340310718702637e-03,
        "nig": 7.957131651432716e-03,
        "cgmy": 1.7350113462333099e-03,
    }

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_values(self, name):
        val = truncated_second_moment(ALL_JUMP_MODELS[name], 0.02)
        assert val == pytest.approx(self.FROZEN[name], rel=1e-6)

    @pytest.mark.parametrize("name", sorted(ALL_JUMP_MODELS))
    def test_against_adaptive_quadrature(self, name):
        model = ALL_JUMP_MODELS[name]
        ref = 0.0
        for lo, hi in ((-0.02, 0.0), (0.0, 0.02)):
            val, _ = quad(
                lambda z: z * z * density(model, z), lo, hi, points=[0.0], limit=200
            )
            ref += val
        assert truncated_second_moment(model, 0.02) == pytest.approx(ref, rel=1e-6)

    def test_empty_measure(self):
        assert truncated_second_moment(NoJumps(), 0.02) == 0.0

    def test_diverges_for_order_two_and_beyond(self):
        with pytest.raises(ValueError):
            truncated_second_moment(CGMY(c=0.5, g=6.0, m=8.0, y=2.0), 0.02)


# ---------------------------------------------------------------------------
# integrability

class TestIntegrability:
    def test_empty_measure(self):
        rep = integrability_check(NoJumps())
        assert rep.value == 0.0 and rep.passed

    def test_lognormal_value(self):
        rep = integrability_check(BENCH_MERTON)
        assert rep.passed
        assert rep.value <= BENCH_MERTON.lam
        # essentially lam * E[Z^2]; the |z| > 1 clipping is 8 sigma out
        expect = BENCH_MERTON.lam * (BENCH_MERTON.m**2 + BENCH_MERTON.delta**2)
        assert rep.value == pytest.approx(expect, rel=1e-6)

    @pytest.mark.parametrize("name", sorted(ALL_JUMP_MODELS))
    def test_benchmark_models_pass(self, name):
        assert integrability_check(ALL_JUMP_MODELS[name]).passed

    @pytest.mark.parametrize("name", ["kou", "vg", "cgmy"])
    def test_value_against_adaptive_quadrature(self, name):
        model = ALL_JUMP_MODELS[name]
        ref = 0.0
        for lo, hi in ((-np.inf, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, np.inf)):
            val, _ = quad(
                lambda z: min(z * z, 1.0) * density(model, z), lo, hi, limit=400
            )
            ref += val
        assert integrability_check(model).value == pytest.approx(ref, rel=1e-3)

    def test_supercritical_order_fails_with_diagnostic(self):
        rep = integrability_check(CGMY(c=0.5, g=6.0, m=8.0, y=2.5))
        assert not rep.passed
        assert rep.value == math.inf
        assert "alpha" in rep.detail

    def test_a_witness_that_cannot_be_built_fails_both_checks(self):
        # mu = 1 / (2 delta^2) overflows to infinity
        far = Merton(lam=0.1, m=0.0, delta=1e-160)
        with pytest.raises(ValueError, match="envelope parameters must be finite"):
            shape_witness(far)
        for rep in (integrability_check(far), structural_condition_check(far, 0.1)):
            assert not rep.passed and math.isnan(rep.value)
            assert rep.detail.startswith("witness unavailable: envelope parameters must be finite")

    def test_narrow_lognormal_jumps_pass(self):
        # lam (m^2 + delta^2): the whole measure sits inside |z| < 1
        rep = integrability_check(Merton(lam=1.0, m=-0.8, delta=0.002))
        assert rep.passed
        assert rep.value == pytest.approx(0.640004, rel=1e-12)

    def test_a_slow_wing_keeps_its_mass_beyond_the_working_range(self):
        # lam_minus = 0.5: e^-5 of the downward mass lies beyond |z| = 10
        rep = integrability_check(Kou(lam=1.0, theta=0.5, lam_plus=1.05, lam_minus=0.5))
        assert rep.passed
        assert f"{rep.value:.6f}" == "0.617168"

    def test_integrable_but_inadmissible_configuration(self):
        # slow upward wing: square-integrable near 0 and summable tails, so the
        # defining integral converges even though the pricing envelope fails
        kou = Kou(lam=1.0, theta=0.5, lam_plus=0.9, lam_minus=5.0)
        assert integrability_check(kou).passed
        assert not shape_witness(kou).admissible


# The boxes of the admissible-space sweep (ROADMAP item 4), with VG's a over
# all of |a| < b, CGMY's y up to 2.99 and Merton's delta down to 1e-4:
# assembly refuses a measure on its witness alone, which holds only while the
# witness admits no measure that the integrability check refuses.
def _floats(lo, hi, **kwargs):
    return st.floats(min_value=lo, max_value=hi, **kwargs)


_OPEN_UNIT = _floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
_WITNESS_BOXES = {
    "merton": st.builds(
        Merton, _floats(0.0, 5.0, exclude_min=True), _floats(-0.8, 0.5), _floats(1e-4, 0.6)
    ),
    "kou": st.builds(
        Kou, _floats(0.0, 5.0, exclude_min=True), _floats(0.0, 1.0),
        _floats(1.05, 30.0), _floats(0.5, 30.0),
    ),
    "vg": st.builds(
        lambda u, b, c: VarianceGamma(a=u * b, b=b, c=c),
        _OPEN_UNIT, _floats(1.2, 30.0), _floats(0.2, 20.0),
    ),
    "nig": st.builds(
        lambda u, b, c: NIG(a=u * (b - 1.05), b=b, c=c),
        _floats(-1.0, 1.0), _floats(1.2, 30.0), _floats(0.01, 3.0),
    ),
    "cgmy": st.builds(
        CGMY, _floats(0.0, 3.0, exclude_min=True), _floats(1.0, 20.0),
        _floats(1.05, 20.0), _floats(-1.0, 2.99),
    ),
}


class TestWitnessImpliesIntegrability:
    @pytest.mark.parametrize("family", sorted(_WITNESS_BOXES))
    @seed(7)
    @settings(max_examples=100, database=None)
    @given(data=st.data())
    def test_an_admissible_witness_passes_the_integrability_check(self, family, data):
        model = data.draw(_WITNESS_BOXES[family])
        if shape_witness(model).admissible:
            report = integrability_check(model)
            assert report.passed, f"{model}: {report.detail}"


# ---------------------------------------------------------------------------
# structural (upward-budget) condition

class TestStructuralCondition:
    def test_empty_measure(self):
        rep = structural_condition_check(NoJumps(), 0.0)
        assert rep.value == 0.0 and rep.passed

    def test_lognormal_budget_value(self):
        rep = structural_condition_check(BENCH_MERTON, 0.1)
        assert rep.value == pytest.approx(6.772314403227523e-04, rel=1e-9)
        assert rep.passed

    def test_lognormal_fails_at_zero_rate(self):
        rep = structural_condition_check(BENCH_MERTON, 0.0)
        assert not rep.passed
        assert rep.value > 0.0

    def test_double_exponential_closed_form(self):
        # integral of (e^z - 1) theta lam lam+ e^(-lam+ z) = theta lam / (lam+ - 1)
        rep = structural_condition_check(Kou(1.0, 0.5, 10.0, 5.0), 0.1)
        assert rep.value == pytest.approx(1.0 / 18.0, rel=1e-9)
        assert rep.passed

    def test_slow_upward_wing_reports_divergence(self):
        rep = structural_condition_check(Kou(1.0, 0.5, 0.9, 5.0), 0.1)
        assert not rep.passed
        assert rep.value == math.inf
        assert "tail" in rep.detail

    def test_gamma_subordinated_budget_value(self):
        # Frullani integral: c ln((b-a)/(b-a-1))
        rep = structural_condition_check(BENCH_VG, 0.1)
        assert rep.value == pytest.approx(0.16849621523, rel=1e-6)
        expect = BENCH_VG.c * math.log(
            (BENCH_VG.b - BENCH_VG.a) / (BENCH_VG.b - BENCH_VG.a - 1.0)
        )
        assert rep.value == pytest.approx(expect, rel=1e-6)
        assert not rep.passed  # 0.168 > 0.1

    def test_bessel_family_diverges_at_origin(self):
        rep = structural_condition_check(BENCH_NIG, 0.1)
        assert not rep.passed
        assert rep.value == math.inf
        assert "origin" in rep.detail

    def test_tempered_stable_budget_value(self):
        # c Gamma(-y) ((m-1)^y - m^y) for the upward wing
        rep = structural_condition_check(BENCH_CGMY, 0.5)
        assert rep.value == pytest.approx(0.3237844494, rel=1e-6)
        assert rep.passed  # 0.324 <= 0.5

    def test_tempered_stable_fails_at_table_rate(self):
        assert not structural_condition_check(BENCH_CGMY, 0.1).passed

    def test_narrow_lognormal_budget_passes(self):
        # lam (e^(m + delta^2/2) - 1) with all the mass above 0
        rep = structural_condition_check(Merton(lam=0.1, m=0.5, delta=0.0005), 0.1)
        assert rep.passed
        assert rep.value == pytest.approx(0.1 * math.expm1(0.5 + 0.0005**2 / 2.0), rel=1e-12)

    def test_a_budget_beyond_every_double_is_infinite(self):
        # e^(m + delta^2/2) = e^800.005 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = structural_condition_check(Merton(lam=0.1, m=800.0, delta=0.1), 0.1)
        assert not rep.passed
        assert rep.value == math.inf
        assert rep.detail == "upward-jump budget inf vs rate 0.1"

    def test_pass_is_value_at_most_rate(self):
        val = structural_condition_check(BENCH_MERTON, 0.1).value
        assert structural_condition_check(BENCH_MERTON, val + 1e-6).passed
        assert not structural_condition_check(BENCH_MERTON, val - 1e-6).passed


# ---------------------------------------------------------------------------
# the families' closed forms against arbitrary precision

def _mp_density(model, z):
    """h(z) in mpmath, written out apart from the families' own formulas."""
    if isinstance(model, Merton):
        return model.lam * mpmath.npdf(z, model.m, model.delta)
    if isinstance(model, Kou):
        if z >= 0:
            return model.lam * model.theta * model.lam_plus * mpmath.exp(-model.lam_plus * z)
        return model.lam * (1 - model.theta) * model.lam_minus * mpmath.exp(model.lam_minus * z)
    if isinstance(model, VarianceGamma):
        return model.c / abs(z) * mpmath.exp(model.a * z - model.b * abs(z))
    if isinstance(model, NIG):
        return model.c / abs(z) * mpmath.exp(model.a * z) * mpmath.besselk(1, model.b * abs(z))
    tilt = -model.m * z if z > 0 else model.g * z
    return model.c * abs(z) ** (-1 - model.y) * mpmath.exp(tilt)


def _mp_integral(model, f, lo, hi):
    """The integral of f(z) h(z) over [lo, hi] at 20 digits.  It is split at
    a Gaussian's peak and eight widths either side, and an origin singularity
    |z|^(-1-y), y > 0, is integrated in t = z^(1 - y)."""
    g = lambda z: f(z) * _mp_density(model, z)
    with mpmath.workdps(20):
        if isinstance(model, CGMY) and model.y > 0 and lo == 0:
            p = 1 / (1 - mpmath.mpf(model.y))
            return mpmath.quad(lambda t: g(t**p) * p * t ** (p - 1), [0, hi ** (1 / p)])
        cuts = [model.m + k * model.delta for k in (-8, 0, 8)] if isinstance(model, Merton) else []
        return mpmath.quad(g, [lo, *sorted(c for c in cuts if lo < c < hi), hi])


_CLOSED_FORM_MODELS = {
    "merton": BENCH_MERTON,
    "merton-narrow": Merton(lam=0.1, m=0.5, delta=0.0005),
    "merton-up": Merton(lam=2.0, m=0.3, delta=0.4),
    "kou": BENCH_KOU,
    "kou-slow": Kou(lam=1.0, theta=0.5, lam_plus=1.05, lam_minus=0.5),
    "vg": BENCH_VG,
    "nig": BENCH_NIG,
    **{f"cgmy-y{y:g}": CGMY(c=0.5, g=6.0, m=8.0, y=y) for y in (-1.0, -0.5, 0.0, 1e-9, -1e-9, 0.5, 0.99)},
}


class TestClosedForms:
    """Each family's upward-jump budget and tail mass nu(|z| > 1) against an
    mpmath quadrature of the density, to 1e-9 relatively; the CGMY values
    cross y = 0, where the budget switches to its Frullani limit."""

    @pytest.mark.parametrize(
        "name", [n for n in _CLOSED_FORM_MODELS if hasattr(_CLOSED_FORM_MODELS[n], "_upward_budget")]
    )
    def test_upward_budget(self, name):
        model = _CLOSED_FORM_MODELS[name]
        ref = _mp_integral(model, mpmath.expm1, 0, 1) + _mp_integral(model, mpmath.expm1, 1, mpmath.inf)
        assert model._upward_budget() == pytest.approx(float(ref), rel=1e-9)

    @pytest.mark.parametrize("name", list(_CLOSED_FORM_MODELS))
    def test_tail_mass(self, name):
        model = _CLOSED_FORM_MODELS[name]
        one = lambda z: 1
        ref = _mp_integral(model, one, 1, mpmath.inf) + _mp_integral(model, one, -mpmath.inf, -1)
        assert model._tail_mass() == pytest.approx(float(ref), rel=1e-9, abs=1e-300)

    def test_a_steeply_tilted_nig_wing_does_not_overflow(self):
        # e^(a z) alone overflows for z > 1.014; the wing's rate b - a is 1.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mass = NIG(a=700.0, b=701.5, c=1.0)._tail_mass()
        assert 0.0 < mass < math.inf

    def test_no_family_without_a_budget_but_nig(self):
        families = (Merton, Kou, VarianceGamma, NIG, CGMY)
        assert [f.__name__ for f in families if not hasattr(f, "_upward_budget")] == ["NIG"]

    def test_importing_the_package_loads_no_quadrature_library(self):
        code = "import sys, levypide; print('scipy.integrate' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


# ---------------------------------------------------------------------------
# frozen check values

class TestFrozenCheckValues:
    """Both checks on the benchmark families, to 1e-12: a change of a
    family's formulas moves these, though not the 6-digit `check` output."""

    FROZEN = {
        "merton": (0.006249999738628468, 0.0006772314403227523),
        "kou": (0.023748206274237876, 0.025),
        "vg": (0.10248811218852022, 0.16849621523099137),
        "nig": (0.13257422539130156, math.inf),
        "cgmy": (0.04967517971919904, 0.3237844494272495),
    }

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_values(self, name):
        integrability, structural = self.FROZEN[name]
        model = ALL_JUMP_MODELS[name]
        assert integrability_check(model).value == pytest.approx(integrability, rel=1e-12)
        assert structural_condition_check(model, 0.1).value == pytest.approx(structural, rel=1e-12)
