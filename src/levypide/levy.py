"""Levy jump measures: densities, tail/singularity classification, and integral checks.

The pricing engine works with measures nu(dz) = h(z) dz on the real line of
log-jump sizes.  Every supported family fits the envelope

    h(z) <= c0 |z|^(-alpha) (e^(d_minus z) 1_{z>=0} + e^(d_plus z) 1_{z<0}) e^(-mu z^2)

and the witness parameters (alpha, d_minus, d_plus, mu, c0) drive the
admissibility rules used by the solvers: a measure is usable for pricing when
alpha < 3 and either mu > 0 or (mu = 0 and d_minus + 1 < 0 < d_plus).

Each family is one frozen dataclass that holds its parameters and its own
formulas: `_density(z)` on a 1-D float array, `_witness()` for the envelope,
`_small_jump_variance(delta)` for the integral of z^2 nu(dz) over |z| < delta,
and the class flag `_FINITE_ACTIVITY`.  An infinite-activity family whose
upward-jump budget can be finite also has `_upward_moment(k, delta)`, the
integral of y^k h(y) dy over (0, delta).  The public functions below call
these and hold no per-family branch, so adding a family takes one class here
and its name in `LevyModel`; the CLI's model table and the Monte Carlo
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
    "characteristic_exponent",
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

    def _upward_moment(self, k: int, delta: float) -> float:
        a = self.b - self.a
        return self.c * _gamma_lower(float(k), a * delta) / a**k


# Range |z| <= this over which the NIG witness envelope constant is certified.
# A pure exponential wing cannot dominate K1's sqrt(|z|) excess on all of R, so
# the constant is calibrated numerically on the working range (all quadratures
# in this package stay inside |z| <= 10).
_NIG_ENVELOPE_RANGE = 32.0


@dataclass(frozen=True)
class NIG:
    """Normal-inverse-Gaussian measure h(z) = c |z|^(-1) e^(a z) K1(b |z|).

    Its upward-jump budget diverges at the origin (alpha = 2), so it has no
    `_upward_moment`.
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
        return self.c / np.abs(z) * np.exp(self.a * z) * special.k1(self.b * np.abs(z))

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
            c0=self.c * factor / self.b,
        )

    def _small_jump_variance(self, delta: float) -> float:
        # the integrand c |z| e^(a z) K1(b |z|) is bounded: a fixed Gauss rule
        f_up = lambda t: self.c * t * np.exp(self.a * t) * special.k1(self.b * t)
        f_dn = lambda t: self.c * t * np.exp(-self.a * t) * special.k1(self.b * t)
        return _gauss_legendre(f_up, 0.0, delta) + _gauss_legendre(f_dn, 0.0, delta)


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

    def _upward_moment(self, k: int, delta: float) -> float:
        # finite for k > y; the structural check calls it only when 1 + y < 2
        s = k - self.y
        return self.c * _gamma_lower(s, self.m * delta) / self.m**s


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


def _simpson_sum(fx: np.ndarray, h: float):
    return h / 3.0 * (fx[0] + fx[-1] + 4.0 * fx[1:-1:2].sum() + 2.0 * fx[2:-1:2].sum())


def _simpson(f: Callable, a: float, b: float, n: int) -> np.ndarray:
    """The composite Simpson rules of f over [a, b] with n / 2 and n panels,
    both from f's n + 1 samples: the even nodes of linspace(a, b, n + 1) are
    linspace(a, b, n / 2 + 1) bit for bit."""
    fx = np.asarray(f(np.linspace(a, b, n + 1)))
    return np.array([_simpson_sum(fx[::2], (b - a) / (n // 2)), _simpson_sum(fx, (b - a) / n)])


def _wings(model: LevyModel, inner: Callable, outer: Callable, total=0.0,
           sides=(1.0, -1.0), upper: float = _Z_MAX, n: int = _N_PANELS) -> np.ndarray:
    """total plus, side by side, the integral of inner(z) h(z) over
    _DELTA <= |z| <= 1 and of outer(z) h(z) over 1 <= |z| <= upper, each by
    the Simpson rules of _simpson: in s = ln|z| next to the origin, where the
    integrands behave like powers of |z|, and linear beyond.  Side -1.0 is
    z < 0.  Returns the (n / 2)-panel value, then the n-panel one."""
    for side in sides:
        f = lambda t: inner(side * t) * density(model, side * t)
        total = total + _simpson(lambda s: f(np.exp(s)) * np.exp(s), math.log(_DELTA), 0.0, n)
        total = total + _simpson(
            lambda t: outer(side * t) * density(model, side * t), 1.0, upper, n
        )
    return total


def _refined(values: np.ndarray) -> tuple[float, str | None]:
    """The values with _N_PANELS and 2 _N_PANELS panels, as _wings returns
    them: the finer value, and the failure detail when the two differ by more
    than _REL_TOL relatively."""
    v1, v2 = (float(v) for v in values)
    if math.isfinite(v2) and abs(v2 - v1) <= _REL_TOL * max(abs(v2), 1e-12):
        return v2, None
    return v2, f"quadrature not converged: {v1:.6g} -> {v2:.6g} under refinement"


# ---------------------------------------------------------------------------
# measure checks

def integrability_check(model: LevyModel) -> CheckReport:
    """Evaluate the defining integrability condition: integral of min(z^2, 1) nu(dz).

    Passes when the value is finite and stable (relative change below
    _REL_TOL = 1e-3 when the panel count doubles).  A measure whose shape
    witness cannot be built fails, with value nan.
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

    core = truncated_second_moment(model, _DELTA)
    value, failure = _refined(
        _wings(model, lambda z: z * z, lambda z: 1.0, total=core, n=2 * _N_PANELS)
    )
    detail = failure or f"integral of min(z^2,1) nu(dz) = {value:.6g}"
    return CheckReport(value, failure is None, detail)


def structural_condition_check(model: LevyModel, r: float) -> CheckReport:
    """Check the upward-jump budget: integral of (e^y - 1) nu(dy) over (0, inf) <= r.

    This is the sufficient condition under which the American put price is
    characterized by the complementarity problem the penalty solver targets.
    Divergent configurations are reported (not raised) with the violated decay
    condition named, and a measure whose shape witness cannot be built fails
    with value nan.  The upper cutoff extends beyond _Z_MAX = 10 automatically
    when the right wing decays slowly, keeping the truncated tail negligible.
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

    if model._FINITE_ACTIVITY:
        core = _gauss_legendre(lambda t: np.expm1(t) * density(model, t), 0.0, _DELTA)
    else:
        # expand e^y - 1 through the cubic term; remainder is O(delta^(4-alpha))
        core = (
            model._upward_moment(1, _DELTA)
            + model._upward_moment(2, _DELTA) / 2.0
            + model._upward_moment(3, _DELTA) / 6.0
        )

    if witness.mu > 0.0:
        upper = _Z_MAX
    else:
        rate = -(witness.d_minus + 1.0)
        upper = max(_Z_MAX, min(400.0, 40.0 / rate))

    value, failure = _refined(
        core + _wings(model, np.expm1, np.expm1, sides=(1.0,), upper=upper, n=2 * _N_PANELS)
    )
    passed = failure is None and value <= r + 1e-12
    detail = failure or f"upward-jump budget {value:.6g} vs rate {r:g}"
    return CheckReport(value, passed, detail)


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

    return complex(
        _wings(
            model,
            lambda z: np.exp(1j * y * z) - 1.0 - 1j * y * z,
            lambda z: np.exp(1j * y * z) - 1.0,
            total=base - 0.5 * y * y * truncated_second_moment(model, _DELTA),
        )[1]
    )
