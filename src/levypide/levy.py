"""Levy jump measures: densities, tail/singularity classification, and integral checks.

The pricing engine works with measures nu(dz) = h(z) dz on the real line of
log-jump sizes.  Every supported family fits the envelope

    h(z) <= c0 |z|^(-alpha) (e^(d_minus z) 1_{z>=0} + e^(d_plus z) 1_{z<0}) e^(-mu z^2)

and the witness parameters (alpha, d_minus, d_plus, mu, c0) drive the
admissibility rules used by the solvers: a measure is usable for pricing when
alpha < 3 and either mu > 0 or (mu = 0 and d_minus + 1 < 0 < d_plus).
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
    "characteristic_exponent",
]


# ---------------------------------------------------------------------------
# measure families

@dataclass(frozen=True)
class NoJumps:
    """The empty measure nu = 0 (pure diffusion dynamics)."""


@dataclass(frozen=True)
class Merton:
    """Compound Poisson jumps with Gaussian sizes: h(z) = lam * N(m, delta^2) density.

    lam is the jump intensity per year; lam = 0 degenerates to no jumps, which
    the Monte Carlo oracle uses as its pure-diffusion path.
    """

    lam: float
    m: float
    delta: float

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"jump intensity must be >= 0, got {self.lam}")
        if self.delta <= 0:
            raise ValueError(f"jump size std must be > 0, got {self.delta}")


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

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError(f"jump intensity must be > 0, got {self.lam}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"upward-jump probability must lie in [0,1], got {self.theta}")
        if self.lam_plus <= 0 or self.lam_minus <= 0:
            raise ValueError("tail rates lam_plus and lam_minus must be > 0")


@dataclass(frozen=True)
class VarianceGamma:
    """Variance-gamma measure h(z) = c |z|^(-1) e^(a z - b |z|)."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if self.b <= abs(self.a):
            raise ValueError("need b > |a| so that both tails decay")
        if self.c <= 0:
            raise ValueError(f"scale c must be > 0, got {self.c}")

    @classmethod
    def from_bm_params(cls, theta: float, kappa: float, sigma_vg: float) -> "VarianceGamma":
        """Build from the subordinated-Brownian-motion parameters.

        theta is the drift of the subordinated Brownian motion, kappa the
        variance of the gamma subordinator per unit time, and sigma_vg its
        volatility; the density parameters are a = theta/sigma_vg^2,
        b = sqrt(theta^2 + 2 sigma_vg^2/kappa)/sigma_vg^2, c = 1/kappa.
        """
        if kappa <= 0 or sigma_vg <= 0:
            raise ValueError("kappa and sigma_vg must be > 0")
        a = theta / sigma_vg**2
        b = math.sqrt(theta**2 + 2.0 * sigma_vg**2 / kappa) / sigma_vg**2
        return cls(a=a, b=b, c=1.0 / kappa)

    def bm_params(self) -> tuple[float, float, float]:
        """Invert to (theta, kappa, sigma_vg); used by the simulation oracle."""
        sigma2 = 2.0 * self.c / (self.b**2 - self.a**2)
        return self.a * sigma2, 1.0 / self.c, math.sqrt(sigma2)


@dataclass(frozen=True)
class NIG:
    """Normal-inverse-Gaussian measure h(z) = c |z|^(-1) e^(a z) K1(b |z|)."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if self.b <= abs(self.a):
            raise ValueError("need b > |a| so that both tails decay")
        if self.c <= 0:
            raise ValueError(f"scale c must be > 0, got {self.c}")


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

    def __post_init__(self) -> None:
        if self.c <= 0 or self.g <= 0 or self.m <= 0:
            raise ValueError("c, g, m must all be > 0")
        if self.y >= 3.0:
            raise ValueError(f"singularity order 1+y must stay below 4, got y={self.y}")


LevyModel = Union[NoJumps, Merton, Kou, VarianceGamma, NIG, CGMY]

# Range |z| <= this over which the NIG witness envelope constant is certified.
# A pure exponential wing cannot dominate K1's sqrt(|z|) excess on all of R, so
# the constant is calibrated numerically on the working range (all quadratures
# in this package stay inside |z| <= 10).
_NIG_ENVELOPE_RANGE = 32.0


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
        if self.alpha < 0 or self.mu < 0 or self.c0 <= 0:
            raise ValueError("need alpha >= 0, mu >= 0, c0 > 0")

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


def density(model: LevyModel, z):
    """Evaluate the jump density h(z); vectorized over z.

    Raises ValueError at z = 0 for the families singular at the origin
    (variance gamma, NIG, tempered stable); callers must treat the origin with
    the split quadrature instead.
    """
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    zz = np.atleast_1d(z_arr).astype(float)
    if isinstance(model, (VarianceGamma, NIG, CGMY)) and np.any(zz == 0.0):
        raise ValueError("density is singular at z = 0; use the split quadrature")

    if isinstance(model, NoJumps):
        out = np.zeros_like(zz)
    elif isinstance(model, Merton):
        out = (
            model.lam
            / (model.delta * math.sqrt(2.0 * math.pi))
            * np.exp(-((zz - model.m) ** 2) / (2.0 * model.delta**2))
        )
    elif isinstance(model, Kou):
        out = np.empty_like(zz)
        pos = zz >= 0
        out[pos] = model.lam * model.theta * model.lam_plus * np.exp(-model.lam_plus * zz[pos])
        out[~pos] = (
            model.lam * (1.0 - model.theta) * model.lam_minus * np.exp(model.lam_minus * zz[~pos])
        )
    elif isinstance(model, VarianceGamma):
        out = model.c / np.abs(zz) * np.exp(model.a * zz - model.b * np.abs(zz))
    elif isinstance(model, NIG):
        out = model.c / np.abs(zz) * np.exp(model.a * zz) * special.k1(model.b * np.abs(zz))
    elif isinstance(model, CGMY):
        out = np.empty_like(zz)
        pos = zz > 0
        out[pos] = model.c * zz[pos] ** (-1.0 - model.y) * np.exp(-model.m * zz[pos])
        out[~pos] = model.c * np.abs(zz[~pos]) ** (-1.0 - model.y) * np.exp(model.g * zz[~pos])
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    return float(out[0]) if scalar else out


def shape_witness(model: LevyModel) -> ShapeParams:
    """Return envelope parameters that dominate the density pointwise."""
    if isinstance(model, NoJumps):
        raise ValueError("the empty measure has no shape witness")
    if isinstance(model, Merton):
        # complete the square: h(z) = c0 e^{(m/delta^2) z} e^{-z^2/(2 delta^2)}
        lam = max(model.lam, np.finfo(float).tiny)  # degenerate lam=0 still needs c0 > 0
        c0 = lam / (model.delta * math.sqrt(2.0 * math.pi)) * math.exp(
            -model.m**2 / (2.0 * model.delta**2)
        )
        d = model.m / model.delta**2
        return ShapeParams(alpha=0.0, d_minus=d, d_plus=d, mu=1.0 / (2.0 * model.delta**2), c0=c0)
    if isinstance(model, Kou):
        c0 = model.lam * max(model.theta * model.lam_plus, (1.0 - model.theta) * model.lam_minus)
        return ShapeParams(
            alpha=0.0,
            d_minus=-model.lam_plus,
            d_plus=model.lam_minus,
            mu=0.0,
            c0=max(c0, np.finfo(float).tiny),
        )
    if isinstance(model, VarianceGamma):
        return ShapeParams(
            alpha=1.0, d_minus=model.a - model.b, d_plus=model.a + model.b, mu=0.0, c0=model.c
        )
    if isinstance(model, NIG):
        # K1(t) ~ 1/t at the origin; the large-t tail carries a sqrt(t) excess
        # over e^{-t}, absorbed into the constant on the certified range.
        t = np.geomspace(1e-12, model.b * _NIG_ENVELOPE_RANGE, 4096)
        factor = float(np.max(t * np.exp(t) * special.k1(t))) * 1.001
        return ShapeParams(
            alpha=2.0,
            d_minus=model.a - model.b,
            d_plus=model.a + model.b,
            mu=0.0,
            c0=model.c * factor / model.b,
        )
    if isinstance(model, CGMY):
        return ShapeParams(
            alpha=1.0 + model.y, d_minus=-model.m, d_plus=model.g, mu=0.0, c0=model.c
        )
    raise TypeError(f"unknown model type {type(model).__name__}")


def finite_activity(model: LevyModel) -> bool:
    """True when nu(R) < infinity (the process jumps finitely often)."""
    return isinstance(model, (NoJumps, Merton, Kou))


# ---------------------------------------------------------------------------
# quadrature plumbing

# The measure-integral quadratures cover [-_Z_MAX, -_DELTA] u [_DELTA, _Z_MAX]
# by composite Simpson rules (log-spaced next to the origin, linear beyond
# |z| = 1) with _N_PANELS panels per segment; the |z| < _DELTA core is handled
# analytically per integrand.  Convergence is accepted when doubling the panel
# count moves the value by less than _REL_TOL relatively.
_Z_MAX = 10.0
_DELTA = 1e-3
_N_PANELS = 2048
_REL_TOL = 1e-3


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a measure check: computed value, pass flag, diagnostic text."""

    value: float
    passed: bool
    detail: str = ""
    r: float | None = None


def _simpson(f: Callable, a: float, b: float, n: int):
    x = np.linspace(a, b, n + 1)
    fx = np.asarray(f(x))
    h = (b - a) / n
    return h / 3.0 * (fx[0] + fx[-1] + 4.0 * fx[1:-1:2].sum() + 2.0 * fx[2:-1:2].sum())


def _simpson_log(f: Callable, a: float, b: float, n: int):
    """Simpson in the s = ln z variable, for integrands with power behavior near 0."""
    return _simpson(lambda s: f(np.exp(s)) * np.exp(s), math.log(a), math.log(b), n)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _gauss_legendre(f: Callable, a: float, b: float) -> float:
    x = 0.5 * (b - a) * _GL_NODES + 0.5 * (b + a)
    return 0.5 * (b - a) * float(np.dot(_GL_WEIGHTS, np.asarray(f(x))))


def _gamma_lower(s: float, x: float) -> float:
    """Unregularized lower incomplete gamma function."""
    return float(special.gammainc(s, x) * special.gamma(s))


def truncated_second_moment(model: LevyModel, delta: float) -> float:
    """Small-jump variance integral of z^2 nu(dz) over |z| < delta.

    Closed forms for every family except NIG, whose bounded integrand
    c |z| e^(a z) K1(b |z|) is integrated with a fixed 64-node Gauss rule.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if isinstance(model, NoJumps):
        return 0.0
    if isinstance(model, Merton):
        s, mu = model.delta, model.m
        lo = (-delta - mu) / s
        hi = (delta - mu) / s
        phi_lo = math.exp(-lo * lo / 2.0) / math.sqrt(2.0 * math.pi)
        phi_hi = math.exp(-hi * hi / 2.0) / math.sqrt(2.0 * math.pi)
        val = (
            (mu * mu + s * s) * (special.ndtr(hi) - special.ndtr(lo))
            + s * (-delta + mu) * phi_lo
            - s * (delta + mu) * phi_hi
        )
        return model.lam * float(val)
    if isinstance(model, Kou):
        up = model.lam * model.theta * _gamma_lower(3.0, model.lam_plus * delta) / model.lam_plus**2
        dn = (
            model.lam
            * (1.0 - model.theta)
            * _gamma_lower(3.0, model.lam_minus * delta)
            / model.lam_minus**2
        )
        return up + dn
    if isinstance(model, VarianceGamma):
        up = _gamma_lower(2.0, (model.b - model.a) * delta) / (model.b - model.a) ** 2
        dn = _gamma_lower(2.0, (model.b + model.a) * delta) / (model.b + model.a) ** 2
        return model.c * (up + dn)
    if isinstance(model, NIG):
        f_up = lambda t: model.c * t * np.exp(model.a * t) * special.k1(model.b * t)
        f_dn = lambda t: model.c * t * np.exp(-model.a * t) * special.k1(model.b * t)
        return _gauss_legendre(f_up, 0.0, delta) + _gauss_legendre(f_dn, 0.0, delta)
    if isinstance(model, CGMY):
        if model.y >= 2.0:
            raise ValueError("small-jump variance diverges for singularity order 1+y >= 3")
        up = _gamma_lower(2.0 - model.y, model.m * delta) / model.m ** (2.0 - model.y)
        dn = _gamma_lower(2.0 - model.y, model.g * delta) / model.g ** (2.0 - model.y)
        return model.c * (up + dn)
    raise TypeError(f"unknown model type {type(model).__name__}")


def _one_sided_moment(model: LevyModel, k: int, delta: float) -> float:
    """Integral of y^k h(y) dy over (0, delta) for the wing-exponential families."""
    if isinstance(model, VarianceGamma):
        a = model.b - model.a
        return model.c * _gamma_lower(float(k), a * delta) / a**k
    if isinstance(model, CGMY):
        s = k - model.y
        if s <= 0:
            raise ValueError("one-sided moment diverges at the origin")
        return model.c * _gamma_lower(s, model.m * delta) / model.m**s
    raise TypeError("one-sided moments are implemented for the wing-exponential families")


# ---------------------------------------------------------------------------
# measure checks

def integrability_check(model: LevyModel) -> CheckReport:
    """Evaluate the defining integrability condition: integral of min(z^2, 1) nu(dz).

    Passes when the value is finite and stable (relative change below
    _REL_TOL = 1e-3 when the panel count doubles).
    """
    if isinstance(model, NoJumps):
        return CheckReport(0.0, True, "empty measure")
    witness = shape_witness(model)
    if witness.alpha >= 3.0:
        return CheckReport(
            math.inf,
            False,
            f"singularity order alpha = {witness.alpha:g} >= 3: z^2 h(z) is not integrable at 0",
        )

    def value_at(n: int) -> float:
        total = truncated_second_moment(model, _DELTA)
        for side in (1.0, -1.0):
            total += float(
                _simpson_log(lambda t: t * t * np.asarray(density(model, side * t)), _DELTA, 1.0, n)
            )
            total += float(
                _simpson(lambda t: np.asarray(density(model, side * t)), 1.0, _Z_MAX, n)
            )
        return total

    v1 = value_at(_N_PANELS)
    v2 = value_at(2 * _N_PANELS)
    converged = math.isfinite(v2) and abs(v2 - v1) <= _REL_TOL * max(abs(v2), 1e-12)
    detail = (
        f"integral of min(z^2,1) nu(dz) = {v2:.6g}"
        if converged
        else f"quadrature not converged: {v1:.6g} -> {v2:.6g} under refinement"
    )
    return CheckReport(v2, converged, detail)


def structural_condition_check(model: LevyModel, r: float) -> CheckReport:
    """Check the upward-jump budget: integral of (e^y - 1) nu(dy) over (0, inf) <= r.

    This is the sufficient condition under which the American put price is
    characterized by the complementarity problem the penalty solver targets.
    Divergent configurations are reported (not raised) with the violated decay
    condition named.  The upper cutoff extends beyond _Z_MAX = 10 automatically
    when the right wing decays slowly, keeping the truncated tail negligible.
    """
    if isinstance(model, NoJumps):
        return CheckReport(0.0, True, "empty measure", r=r)
    witness = shape_witness(model)
    if witness.alpha >= 2.0:
        return CheckReport(
            math.inf,
            False,
            "divergent at the origin: (e^y - 1) ~ y against a |z|^-alpha singularity "
            f"with alpha = {witness.alpha:g} >= 2",
            r=r,
        )
    if witness.mu == 0.0 and witness.d_minus + 1.0 >= 0.0:
        return CheckReport(
            math.inf,
            False,
            "divergent in the right tail: the upward wing must decay faster than e^-y "
            f"(d_minus + 1 = {witness.d_minus + 1.0:g} >= 0)",
            r=r,
        )

    if isinstance(model, (Merton, Kou)):
        core = _gauss_legendre(
            lambda t: np.expm1(t) * np.asarray(density(model, t)), 0.0, _DELTA
        )
    else:
        # expand e^y - 1 through the cubic term; remainder is O(delta^(4-alpha))
        core = (
            _one_sided_moment(model, 1, _DELTA)
            + _one_sided_moment(model, 2, _DELTA) / 2.0
            + _one_sided_moment(model, 3, _DELTA) / 6.0
        )

    if witness.mu > 0.0:
        upper = _Z_MAX
    else:
        rate = -(witness.d_minus + 1.0)
        upper = max(_Z_MAX, min(400.0, 40.0 / rate))

    def tail(n: int) -> float:
        v = float(
            _simpson_log(lambda t: np.expm1(t) * np.asarray(density(model, t)), _DELTA, 1.0, n)
        )
        v += float(_simpson(lambda t: np.expm1(t) * np.asarray(density(model, t)), 1.0, upper, n))
        return v

    v1 = core + tail(_N_PANELS)
    v2 = core + tail(2 * _N_PANELS)
    converged = math.isfinite(v2) and abs(v2 - v1) <= _REL_TOL * max(abs(v2), 1e-12)
    passed = converged and v2 <= r + 1e-12
    if not converged:
        detail = f"quadrature not converged: {v1:.6g} -> {v2:.6g} under refinement"
    else:
        detail = f"upward-jump budget {v2:.6g} vs rate {r:g}"
    return CheckReport(v2, passed, detail, r=r)


def characteristic_exponent(
    model: LevyModel,
    sigma: float,
    omega: float,
    y: float,
) -> complex:
    """Characteristic exponent of the log-price Levy process.

    phi(y) = -sigma^2 y^2/2 + i omega y
             + integral of (e^(iyz) - 1 - iyz 1_{|z|<=1}) nu(dz).

    The |z| < delta core uses the quadratic Taylor term -y^2/2 z^2; accuracy
    degrades like O(|y|^3 delta) for very large frequencies.  phi(0) = 0
    exactly by construction.
    """
    base = -0.5 * sigma * sigma * y * y + 1j * omega * y
    if isinstance(model, NoJumps):
        return complex(base)
    witness = shape_witness(model)
    if witness.alpha >= 3.0:
        raise ValueError("measure is not integrable against min(z^2, 1)")

    total = base - 0.5 * y * y * truncated_second_moment(model, _DELTA)
    for side in (1.0, -1.0):
        inner = _simpson_log(
            lambda t: (np.exp(1j * y * side * t) - 1.0 - 1j * y * side * t)
            * np.asarray(density(model, side * t)),
            _DELTA,
            1.0,
            _N_PANELS,
        )
        outer = _simpson(
            lambda t: (np.exp(1j * y * side * t) - 1.0) * np.asarray(density(model, side * t)),
            1.0,
            _Z_MAX,
            _N_PANELS,
        )
        total = total + inner + outer
    return complex(total)
