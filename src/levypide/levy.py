"""Levy jump measures: densities, tail/singularity classification, and integral checks.

The pricing engine works with measures nu(dz) = h(z) dz on the real line of
log-jump sizes.  Every supported family fits the envelope

    h(z) <= c0 |z|^(-alpha) (e^(d_minus z) 1_{z>=0} + e^(d_plus z) 1_{z<0}) e^(-mu z^2)

and the witness parameters (alpha, d_minus, d_plus, mu, c0) decide the one
admissibility rule the solvers apply (`ShapeParams.admissible`, at assembly):
a measure is usable for pricing when alpha < 3 and either mu > 0 or (mu = 0
and d_minus + 1 < 0 < d_plus).  The measure checks below report a value from
each family's own formulas: the CLI's `check` prints `integrability_check`'s,
which no solve runs, and an American job runs `structural_condition_check`.

Each family is one frozen dataclass that holds its parameters and its own
formulas: `_density(z)` on a 1-D float array, `_witness()` for the envelope,
`_small_jump_variance(delta)` for the integral of z^2 nu(dz) over |z| < delta,
`_tail_mass()` for nu(|z| > 1), and the class flag `_FINITE_ACTIVITY`.  A
family whose upward-jump budget can be finite also has `_upward_budget()`,
the integral of (e^y - 1) nu(dy) over y > 0, which the structural check calls
only after it has ruled out divergence.  All of these are closed forms but
NIG's small-jump variance (a fixed Gauss rule) and NIG's and CGMY's tail
masses (adaptive quadrature of smooth wings).  The public functions below
call these and hold no per-family branch, so adding a family takes one class
here and its name in `LevyModel`; the CLI's model table and the Monte Carlo
simulator table in `oracle` list the families they accept.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy import special

__all__ = [
    "NoJumps",
    "Merton",
    "Kou",
    "VarianceGamma",
    "NIG",
    "CGMY",
    "LevyModel",
    "ShapeParams",
    "CheckReport",
    "density",
    "shape_witness",
    "finite_activity",
    "truncated_second_moment",
    "integrability_check",
    "structural_condition_check",
]


# ---------------------------------------------------------------------------
# shape witnesses and admissibility

@dataclass(frozen=True)
class ShapeParams:
    """Envelope parameters (alpha, d_minus, d_plus, mu, c0) for a jump density."""

    alpha: float
    d_minus: float
    d_plus: float
    mu: float
    c0: float

    def __post_init__(self) -> None:
        fields = (self.alpha, self.d_minus, self.d_plus, self.mu, self.c0)
        if not all(math.isfinite(v) for v in fields):
            raise ValueError(f"envelope parameters must be finite, got {fields}")
        if self.alpha < 0 or self.mu < 0 or self.c0 <= 0:
            raise ValueError(
                f"need alpha >= 0, mu >= 0, c0 > 0, got alpha={self.alpha:g}, "
                f"mu={self.mu:g}, c0={self.c0:g}"
            )

    @property
    def admissible(self) -> bool:
        """True when the measure is usable for pricing: alpha < 3 and fast-decaying wings."""
        if self.alpha >= 3.0:
            return False
        if self.mu > 0:
            return True
        return self.d_minus + 1.0 < 0.0 < self.d_plus

    def envelope(self, z) -> np.ndarray:
        """Evaluate the bounding envelope at nonzero z."""
        z = np.asarray(z, dtype=float)
        wing = np.where(z >= 0, self.d_minus * z, self.d_plus * z)
        return self.c0 * np.abs(z) ** (-self.alpha) * np.exp(wing - self.mu * z * z)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _gauss_legendre(f: Callable, a: float, b: float) -> float:
    x = 0.5 * (b - a) * _GL_NODES + 0.5 * (b + a)
    return 0.5 * (b - a) * float(np.dot(_GL_WEIGHTS, np.asarray(f(x))))


def _gamma_lower(s: float, x: float) -> float:
    """Unregularized lower incomplete gamma function."""
    return float(special.gammainc(s, x) * special.gamma(s))


def _outer_mass(up: Callable, down: Callable) -> float:
    """The integrals of up(t) and down(t) over t >= 1, added: the mass of the
    wings z = t and z = -t beyond |z| = 1, by adaptive quadrature."""
    from scipy import integrate  # only `check` needs it; `import levypide` stays without it

    return sum(integrate.quad(f, 1.0, math.inf, epsabs=0.0, epsrel=1e-11)[0] for f in (up, down))


# ---------------------------------------------------------------------------
# measure families

@dataclass(frozen=True)
class NoJumps:
    """The empty measure nu = 0 (pure diffusion dynamics)."""

    _FINITE_ACTIVITY = True

    def _density(self, z: np.ndarray) -> np.ndarray:
        return np.zeros_like(z)

    def _witness(self) -> ShapeParams:
        raise ValueError("the empty measure has no shape witness")

    def _small_jump_variance(self, delta: float) -> float:
        return 0.0


@dataclass(frozen=True)
class Merton:
    """Compound Poisson jumps with Gaussian sizes: h(z) = lam * N(m, delta^2) density.

    lam is the jump intensity per year; lam = 0 degenerates to no jumps.
    """

    lam: float
    m: float
    delta: float

    _FINITE_ACTIVITY = True

    def __post_init__(self) -> None:
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"jump intensity must be finite and >= 0, got {self.lam}")
        if not math.isfinite(self.m):
            raise ValueError(f"mean jump size must be finite, got {self.m}")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"jump size std must be finite and > 0, got {self.delta}")

    def _density(self, z: np.ndarray) -> np.ndarray:
        return (
            self.lam
            / (self.delta * math.sqrt(2.0 * math.pi))
            * np.exp(-((z - self.m) ** 2) / (2.0 * self.delta**2))
        )

    def _witness(self) -> ShapeParams:
        # complete the square: h(z) = c0 e^{(m/delta^2) z} e^{-z^2/(2 delta^2)}
        lam = max(self.lam, np.finfo(float).tiny)  # degenerate lam=0 still needs c0 > 0
        c0 = lam / (self.delta * math.sqrt(2.0 * math.pi)) * math.exp(
            -self.m**2 / (2.0 * self.delta**2)
        )
        d = self.m / self.delta**2
        # c0 underflows to 0 once |m|/delta > 38.6; any c0 at or above the true
        # value bounds the density, so it is clamped at the smallest positive double
        c0 = max(c0, math.ulp(0.0))
        return ShapeParams(alpha=0.0, d_minus=d, d_plus=d, mu=1.0 / (2.0 * self.delta**2), c0=c0)

    def _small_jump_variance(self, delta: float) -> float:
        s, mu = self.delta, self.m
        lo = (-delta - mu) / s
        hi = (delta - mu) / s
        phi_lo = math.exp(-lo * lo / 2.0) / math.sqrt(2.0 * math.pi)
        phi_hi = math.exp(-hi * hi / 2.0) / math.sqrt(2.0 * math.pi)
        val = (
            (mu * mu + s * s) * (special.ndtr(hi) - special.ndtr(lo))
            + s * (-delta + mu) * phi_lo
            - s * (delta + mu) * phi_hi
        )
        return self.lam * float(val)

    def _tail_mass(self) -> float:
        s, m = self.delta, self.m
        return self.lam * float(special.ndtr((-1.0 - m) / s) + special.ndtr((m - 1.0) / s))

    def _upward_budget(self) -> float:
        # lam E[(e^Z - 1) 1_{Z > 0}] for Z ~ N(m, delta^2)
        s, m = self.delta, self.m
        try:
            grown = math.exp(m + s * s / 2.0) * special.ndtr((m + s * s) / s)
        except OverflowError:  # then the budget is beyond every double too
            return math.inf if self.lam else 0.0
        return self.lam * float(grown - special.ndtr(m / s))


@dataclass(frozen=True)
class Kou:
    """Double-exponential jumps.

    h(z) = lam * (theta * lam_plus * e^(-lam_plus z) for z >= 0,
                  (1-theta) * lam_minus * e^(lam_minus z) for z < 0).
    """

    lam: float
    theta: float
    lam_plus: float
    lam_minus: float

    _FINITE_ACTIVITY = True

    def __post_init__(self) -> None:
        if not 0 < self.lam < math.inf:
            raise ValueError(f"jump intensity must be finite and > 0, got {self.lam}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"upward-jump probability must lie in [0,1], got {self.theta}")
        if not (0 < self.lam_plus < math.inf and 0 < self.lam_minus < math.inf):
            raise ValueError("tail rates lam_plus and lam_minus must be finite and > 0")

    def _density(self, z: np.ndarray) -> np.ndarray:
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = self.lam * self.theta * self.lam_plus * np.exp(-self.lam_plus * z[pos])
        out[~pos] = (
            self.lam * (1.0 - self.theta) * self.lam_minus * np.exp(self.lam_minus * z[~pos])
        )
        return out

    def _witness(self) -> ShapeParams:
        c0 = self.lam * max(self.theta * self.lam_plus, (1.0 - self.theta) * self.lam_minus)
        return ShapeParams(
            alpha=0.0,
            d_minus=-self.lam_plus,
            d_plus=self.lam_minus,
            mu=0.0,
            c0=max(c0, np.finfo(float).tiny),
        )

    def _small_jump_variance(self, delta: float) -> float:
        up = self.lam * self.theta * _gamma_lower(3.0, self.lam_plus * delta) / self.lam_plus**2
        dn = (
            self.lam
            * (1.0 - self.theta)
            * _gamma_lower(3.0, self.lam_minus * delta)
            / self.lam_minus**2
        )
        return up + dn

    def _tail_mass(self) -> float:
        up = self.theta * math.exp(-self.lam_plus)
        return self.lam * (up + (1.0 - self.theta) * math.exp(-self.lam_minus))

    def _upward_budget(self) -> float:
        return self.lam * self.theta / (self.lam_plus - 1.0)


@dataclass(frozen=True)
class VarianceGamma:
    """Variance-gamma measure h(z) = c |z|^(-1) e^(a z - b |z|)."""

    a: float
    b: float
    c: float

    _FINITE_ACTIVITY = False

    def __post_init__(self) -> None:
        if not abs(self.a) < self.b < math.inf:
            raise ValueError("need finite b > |a| so that both tails decay")
        if not 0 < self.c < math.inf:
            raise ValueError(f"scale c must be finite and > 0, got {self.c}")

    @classmethod
    def from_bm_params(cls, theta: float, kappa: float, sigma_vg: float) -> "VarianceGamma":
        """Build from the subordinated-Brownian-motion parameters.

        theta is the drift of the subordinated Brownian motion, kappa the
        variance of the gamma subordinator per unit time, and sigma_vg its
        volatility; the density parameters are a = theta/sigma_vg^2,
        b = sqrt(theta^2 + 2 sigma_vg^2/kappa)/sigma_vg^2, c = 1/kappa.
        """
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        if not (0 < kappa < math.inf and 0 < sigma_vg < math.inf):
            raise ValueError("kappa and sigma_vg must be finite and > 0")
        a = theta / sigma_vg**2
        b = math.sqrt(theta**2 + 2.0 * sigma_vg**2 / kappa) / sigma_vg**2
        return cls(a=a, b=b, c=1.0 / kappa)

    def bm_params(self) -> tuple[float, float, float]:
        """Invert to (theta, kappa, sigma_vg); used by the simulation oracle."""
        sigma2 = 2.0 * self.c / (self.b**2 - self.a**2)
        return self.a * sigma2, 1.0 / self.c, math.sqrt(sigma2)

    def _density(self, z: np.ndarray) -> np.ndarray:
        return self.c / np.abs(z) * np.exp(self.a * z - self.b * np.abs(z))

    def _witness(self) -> ShapeParams:
        return ShapeParams(
            alpha=1.0, d_minus=self.a - self.b, d_plus=self.a + self.b, mu=0.0, c0=self.c
        )

    def _small_jump_variance(self, delta: float) -> float:
        up = _gamma_lower(2.0, (self.b - self.a) * delta) / (self.b - self.a) ** 2
        dn = _gamma_lower(2.0, (self.b + self.a) * delta) / (self.b + self.a) ** 2
        return self.c * (up + dn)

    def _tail_mass(self) -> float:
        return self.c * float(special.exp1(self.b - self.a) + special.exp1(self.b + self.a))

    def _upward_budget(self) -> float:
        # Frullani: the integral of (e^y - 1) e^(-(b - a) y) / y over y > 0
        return -self.c * math.log1p(-1.0 / (self.b - self.a))


# Range |z| <= this over which the NIG witness envelope constant is certified.
# A pure exponential wing cannot dominate K1's sqrt(|z|) excess on all of R, so
# the constant is calibrated numerically on the working range.
_NIG_ENVELOPE_RANGE = 32.0


@dataclass(frozen=True)
class NIG:
    """Normal-inverse-Gaussian measure h(z) = c |z|^(-1) e^(a z) K1(b |z|).

    Its upward-jump budget diverges at the origin (alpha = 2), so it has no
    `_upward_budget`.
    """

    a: float
    b: float
    c: float

    _FINITE_ACTIVITY = False

    def __post_init__(self) -> None:
        if not abs(self.a) < self.b < math.inf:
            raise ValueError("need finite b > |a| so that both tails decay")
        if not 0 < self.c < math.inf:
            raise ValueError(f"scale c must be finite and > 0, got {self.c}")

    def _density(self, z: np.ndarray) -> np.ndarray:
        # through k1e(t) = e^t K1(t), as _tail_mass: e^(a z) alone overflows
        # for a steep tilt while e^(a z - b |z|) cannot
        t = self.b * np.abs(z)
        return self.c / np.abs(z) * np.exp(self.a * z - t) * special.k1e(t)

    def _witness(self) -> ShapeParams:
        # K1(t) ~ 1/t at the origin; the large-t tail carries a sqrt(t) excess
        # over e^{-t}, absorbed into the constant on the certified range.
        # d/dt [t e^t K1(t)] = t e^t (K1(t) - K0(t)) > 0, so the constant is
        # the range's end value, taken through the scaled k1e = e^t K1(t),
        # which does not overflow for large t.
        end = self.b * _NIG_ENVELOPE_RANGE
        factor = end * float(special.k1e(end)) * 1.001
        return ShapeParams(
            alpha=2.0,
            d_minus=self.a - self.b,
            d_plus=self.a + self.b,
            mu=0.0,
            # a tiny c over a huge b underflows, clamped as Merton's
            c0=max(self.c * factor / self.b, math.ulp(0.0)),
        )

    def _small_jump_variance(self, delta: float) -> float:
        # the integrand c |z| e^(a z) K1(b |z|) is bounded: a fixed Gauss rule
        f_up = lambda t: self.c * t * np.exp(self.a * t) * special.k1(self.b * t)
        f_dn = lambda t: self.c * t * np.exp(-self.a * t) * special.k1(self.b * t)
        return _gauss_legendre(f_up, 0.0, delta) + _gauss_legendre(f_dn, 0.0, delta)

    def _tail_mass(self) -> float:
        # through k1e(t) = e^t K1(t): the wing c e^(-rate t) k1e(b t) / t cannot overflow
        wing = lambda rate: lambda t: self.c * math.exp(-rate * t) * special.k1e(self.b * t) / t
        return _outer_mass(wing(self.b - self.a), wing(self.b + self.a))


@dataclass(frozen=True)
class CGMY:
    """Tempered-stable measure h(z) = c |z|^(-1-y) (e^(g z) for z<0, e^(-m z) for z>0).

    y < 2 is the usual well-posedness range (finite quadratic variation of the
    small jumps); y in [2, 3) may still be constructed so the diagnostic
    checks can classify such measures as unusable, but every check on them
    reports failure.
    """

    c: float
    g: float
    m: float
    y: float

    _FINITE_ACTIVITY = False

    def __post_init__(self) -> None:
        if not all(0 < v < math.inf for v in (self.c, self.g, self.m)):
            raise ValueError("c, g, m must all be finite and > 0")
        if not -math.inf < self.y < 3.0:
            raise ValueError(
                f"y must be finite and the singularity order 1+y below 4, got y={self.y}"
            )

    def _density(self, z: np.ndarray) -> np.ndarray:
        out = np.empty_like(z)
        pos = z > 0
        out[pos] = self.c * z[pos] ** (-1.0 - self.y) * np.exp(-self.m * z[pos])
        out[~pos] = self.c * np.abs(z[~pos]) ** (-1.0 - self.y) * np.exp(self.g * z[~pos])
        return out

    def _witness(self) -> ShapeParams:
        return ShapeParams(alpha=1.0 + self.y, d_minus=-self.m, d_plus=self.g, mu=0.0, c0=self.c)

    def _small_jump_variance(self, delta: float) -> float:
        if self.y >= 2.0:
            raise ValueError("small-jump variance diverges for singularity order 1+y >= 3")
        up = _gamma_lower(2.0 - self.y, self.m * delta) / self.m ** (2.0 - self.y)
        dn = _gamma_lower(2.0 - self.y, self.g * delta) / self.g ** (2.0 - self.y)
        return self.c * (up + dn)

    def _tail_mass(self) -> float:
        wing = lambda rate: lambda t: self.c * t ** (-1.0 - self.y) * math.exp(-rate * t)
        return _outer_mass(wing(self.m), wing(self.g))

    def _upward_budget(self) -> float:
        # c Gamma(-y) ((m - 1)^y - m^y) (Carr, Geman, Madan & Yor 2002) for y < 1,
        # written to stay accurate next to its y = 0 limit, VG's Frullani form;
        # Gamma(-y) m^y goes through logarithms, finite where Gamma(-y) overflows
        y, m = self.y, self.m
        if y == 0.0:
            return -self.c * math.log1p(-1.0 / m)
        scale = special.gammasgn(-y) * math.exp(special.gammaln(-y) + y * math.log(m))
        return self.c * float(scale) * math.expm1(y * math.log1p(-1.0 / m))


LevyModel = Union[NoJumps, Merton, Kou, VarianceGamma, NIG, CGMY]


def density(model: LevyModel, z):
    """Evaluate the jump density h(z); vectorized over z.

    Raises ValueError at z = 0 for the families singular at the origin
    (variance gamma, NIG, tempered stable); callers must treat the origin with
    the split quadrature instead.
    """
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    zz = np.atleast_1d(z_arr).astype(float)
    # a density of infinite total mass is singular at the origin
    if not model._FINITE_ACTIVITY and np.any(zz == 0.0):
        raise ValueError("density is singular at z = 0; use the split quadrature")
    out = model._density(zz)
    return float(out[0]) if scalar else out


def shape_witness(model: LevyModel) -> ShapeParams:
    """Return envelope parameters that dominate the density pointwise."""
    return model._witness()


def finite_activity(model: LevyModel) -> bool:
    """True when nu(R) < infinity (the process jumps finitely often)."""
    return model._FINITE_ACTIVITY


def truncated_second_moment(model: LevyModel, delta: float) -> float:
    """Small-jump variance integral of z^2 nu(dz) over |z| < delta.

    Closed forms for every family except NIG, whose bounded integrand
    c |z| e^(a z) K1(b |z|) is integrated with a fixed 64-node Gauss rule.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    return model._small_jump_variance(delta)


# ---------------------------------------------------------------------------
# measure checks

@dataclass(frozen=True)
class CheckReport:
    """Outcome of a measure check: computed value, pass flag, diagnostic text."""

    value: float
    passed: bool
    detail: str = ""


def integrability_check(model: LevyModel) -> CheckReport:
    """Evaluate the defining integrability condition: integral of min(z^2, 1) nu(dz).

    The value is the small-jump variance over |z| < 1 plus the tail mass
    nu(|z| > 1), and passes when finite.  A measure whose shape witness
    cannot be built fails, with value nan.
    """
    if isinstance(model, NoJumps):
        return CheckReport(0.0, True, "empty measure")
    try:
        witness = shape_witness(model)
    except ValueError as exc:
        return CheckReport(math.nan, False, f"witness unavailable: {exc}")
    if witness.alpha >= 3.0:
        return CheckReport(
            math.inf,
            False,
            f"singularity order alpha = {witness.alpha:g} >= 3: z^2 h(z) is not integrable at 0",
        )

    value = truncated_second_moment(model, 1.0) + model._tail_mass()
    return CheckReport(value, math.isfinite(value), f"integral of min(z^2,1) nu(dz) = {value:.6g}")


def structural_condition_check(model: LevyModel, r: float) -> CheckReport:
    """Check the upward-jump budget: integral of (e^y - 1) nu(dy) over (0, inf) <= r.

    This is the sufficient condition under which the American put price is
    characterized by the complementarity problem the penalty solver targets.
    Divergent configurations are reported (not raised) with the violated decay
    condition named, and a measure whose shape witness cannot be built fails
    with value nan.  A convergent budget is the family's closed form.
    """
    if isinstance(model, NoJumps):
        return CheckReport(0.0, True, "empty measure")
    try:
        witness = shape_witness(model)
    except ValueError as exc:
        return CheckReport(math.nan, False, f"witness unavailable: {exc}")
    if witness.alpha >= 2.0:
        return CheckReport(
            math.inf,
            False,
            "divergent at the origin: (e^y - 1) ~ y against a |z|^-alpha singularity "
            f"with alpha = {witness.alpha:g} >= 2",
        )
    if witness.mu == 0.0 and witness.d_minus + 1.0 >= 0.0:
        return CheckReport(
            math.inf,
            False,
            "divergent in the right tail: the upward wing must decay faster than e^-y "
            f"(d_minus + 1 = {witness.d_minus + 1.0:g} >= 0)",
        )

    value = model._upward_budget()
    return CheckReport(value, value <= r + 1e-12, f"upward-jump budget {value:.6g} vs rate {r:g}")
