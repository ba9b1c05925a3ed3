"""Measure families: densities, envelope witnesses, and the integral checks."""
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
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
    characteristic_exponent,
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
        # c0 = lam / (delta sqrt(2 pi)) e^(-m^2 / (2 delta^2)) underflows to 0
        far = Merton(lam=0.1, m=-5.0, delta=0.05)
        with pytest.raises(ValueError, match="got alpha=0, mu=200, c0=0"):
            shape_witness(far)
        for rep in (integrability_check(far), structural_condition_check(far, 0.1)):
            assert not rep.passed and math.isnan(rep.value)
            assert rep.detail.startswith("witness unavailable: need alpha >= 0")

    def test_integrable_but_inadmissible_configuration(self):
        # slow upward wing: square-integrable near 0 and summable tails, so the
        # defining integral converges even though the pricing envelope fails
        kou = Kou(lam=1.0, theta=0.5, lam_plus=0.9, lam_minus=5.0)
        assert integrability_check(kou).passed
        assert not shape_witness(kou).admissible


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

    def test_pass_is_value_at_most_rate(self):
        val = structural_condition_check(BENCH_MERTON, 0.1).value
        assert structural_condition_check(BENCH_MERTON, val + 1e-6).passed
        assert not structural_condition_check(BENCH_MERTON, val - 1e-6).passed


# ---------------------------------------------------------------------------
# frozen check values

class TestFrozenCheckValues:
    """Both checks and the characteristic exponent on the benchmark families,
    to 1e-12: a change of the quadrature constants or of the order in which
    the wing integrals are added moves these, though not the 6-digit `check`
    output."""

    FROZEN = {
        "merton": (0.006249999738629176, 0.0006772314403227547),
        "kou": (0.023748206171210387, 0.024999999999899474),
        "vg": (0.10248811218889918, 0.16849621523095334),
        "nig": (0.13257422536868124, math.inf),
        "cgmy": (0.04967517971929041, 0.32378444942707907),
    }

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_values(self, name):
        integrability, structural = self.FROZEN[name]
        model = ALL_JUMP_MODELS[name]
        assert integrability_check(model).value == pytest.approx(integrability, rel=1e-12)
        assert structural_condition_check(model, 0.1).value == pytest.approx(structural, rel=1e-12)

    # characteristic_exponent(model, 0.23, 0.05, y) at y = 0.5, 3 and 20
    EXPONENT = {
        "merton": (
            -0.0073915352304390145 + 0.025044694561480677j,
            -0.26346383631855014 + 0.1589728451863501j,
            -10.680726132472431 + 1.4008406326551939j,
        ),
        "kou": (
            -0.010905027769603386 + 0.022094564630575003j,
            -0.2976653845627904 + 0.1564300518447713j,
            -10.678404706143864 + 1.0324309679205017j,
        ),
        "vg": (
            -0.01942683948463266 + 0.02503587757737423j,
            -0.6571819323519162 + 0.2650719233779795j,
            -16.15203261780445 + 7.569293116415613j,
        ),
        "nig": (
            -0.02326018161712104 + 0.024228362201099397j,
            -0.7841090474678922 + 0.2012733715266615j,
            -20.454105180566387 + 2.9108349247846728j,
        ),
        "cgmy": (
            -0.012818004649306214 + 0.02499387412033038j,
            -0.44884146720926493 + 0.16457572184429603j,
            -14.535060929142572 + 1.7431796539270266j,
        ),
    }

    @pytest.mark.parametrize("name", sorted(EXPONENT))
    def test_exponent(self, name):
        model = ALL_JUMP_MODELS[name]
        for y, frozen in zip((0.5, 3.0, 20.0), self.EXPONENT[name]):
            val = characteristic_exponent(model, 0.23, 0.05, y)
            assert val == pytest.approx(frozen, rel=1e-12)


# ---------------------------------------------------------------------------
# characteristic exponent

class TestCharacteristicExponent:
    @pytest.mark.parametrize(
        "model", [NoJumps(), BENCH_MERTON, BENCH_VG, BENCH_NIG], ids=type
    )
    def test_zero_frequency_is_exactly_zero(self, model):
        val = characteristic_exponent(model, 0.23, 0.05, 0.0)
        assert val.real == 0.0 and val.imag == 0.0

    def test_pure_gaussian_term(self):
        val = characteristic_exponent(NoJumps(), 0.2, 0.0, 1.0)
        assert val == pytest.approx(-0.02, abs=1e-15)

    @pytest.mark.parametrize("y", [0.5, 1.0, 3.0])
    def test_lognormal_jumps_match_closed_form(self, y):
        mer = BENCH_MERTON
        quad_val = characteristic_exponent(mer, 0.23, 0.05, y)
        # linear compensator truncated to |z| <= 1: partial first moment
        a = (-1.0 - mer.m) / mer.delta
        b = (1.0 - mer.m) / mer.delta
        phi = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
        m1 = mer.m * (special.ndtr(b) - special.ndtr(a)) + mer.delta * (phi(a) - phi(b))
        closed = (
            -0.5 * 0.23**2 * y * y
            + 1j * 0.05 * y
            + mer.lam * (np.exp(1j * y * mer.m - mer.delta**2 * y * y / 2.0) - 1.0)
            - 1j * y * mer.lam * m1
        )
        assert abs(quad_val - closed) < 1e-8

    @given(st.floats(min_value=-4.0, max_value=4.0))
    def test_conjugate_symmetry(self, y):
        a = characteristic_exponent(BENCH_KOU, 0.23, 0.1, y)
        b = characteristic_exponent(BENCH_KOU, 0.23, 0.1, -y)
        assert a == pytest.approx(b.conjugate(), rel=1e-9, abs=1e-12)
