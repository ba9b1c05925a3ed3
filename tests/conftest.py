"""Shared fixtures: the benchmark configuration every suite prices against.

K = 100 put, T = 1, diffusion sigma = 0.23, lognormal jumps (0.1, -0.2, 0.15),
gamma-subordinated jumps from (theta = -0.43, kappa = 0.27, sigma_vg = 0.23),
and the eight-spot grid of the reference table the `table1` preset reproduces.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from levypide import (
    CGMY,
    NIG,
    GridSpec,
    Kou,
    Merton,
    OptionSpec,
    VarianceGamma,
)
from levypide.pide import FarField, _explicit_term, assemble_operators

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

STRIKE = 100.0
EXPIRY = 1.0
SIGMA = 0.23
RATES = (0.0, 0.1)

# Spots of the reference table (log-equispaced around K with step 0.04).
TABLE_SPOTS = (85.2144, 88.692, 92.3116, 96.0789, 100.0, 104.081, 108.329, 112.75)

BENCH_MERTON = Merton(lam=0.1, m=-0.2, delta=0.15)
BENCH_VG = VarianceGamma.from_bm_params(theta=-0.43, kappa=0.27, sigma_vg=0.23)
BENCH_KOU = Kou(lam=0.1, theta=0.5, lam_plus=3.0, lam_minus=2.0)
BENCH_NIG = NIG(a=-1.0, b=5.0, c=1.0)
BENCH_CGMY = CGMY(c=0.5, g=6.0, m=8.0, y=0.5)

ALL_JUMP_MODELS = {
    "merton": BENCH_MERTON,
    "kou": BENCH_KOU,
    "vg": BENCH_VG,
    "nig": BENCH_NIG,
    "cgmy": BENCH_CGMY,
}


def bench_spec(rate: float = 0.0, sigma: float = SIGMA, kind: str = "put") -> OptionSpec:
    return OptionSpec(strike=STRIKE, expiry=EXPIRY, rate=rate, sigma=sigma, kind=kind)


@pytest.fixture(scope="session")
def default_grid() -> GridSpec:
    return GridSpec()


@pytest.fixture(scope="session")
def merton_surfaces():
    """European solves of the lognormal-jump benchmark at both table rates."""
    from levypide import solve_european

    grid = GridSpec()
    return {
        r: solve_european(bench_spec(rate=r), BENCH_MERTON, grid) for r in RATES
    }


def far_values(far, rate: float):
    """A FarField as the callable (x, tau) -> level(x) + e^(rate tau) growth(x)."""
    return lambda x, tau: far.level(x) + math.exp(rate * tau) * far.growth(x)


def grid_spots(lo: float = 80.0, hi: float = 125.0, n: int = 10) -> np.ndarray:
    return np.linspace(lo, hi, n)


def jump_reference(op, xs, u, far, tau):
    """The jump operator on u written out from op's offsets and weights: the
    correlation of u padded with far(x, tau) on the J lattice points beyond
    each edge, minus W u, plus the two small-jump stencils; boundary rows zero."""
    out = np.zeros_like(u)
    dx = op.dx
    if op.offsets.size:
        J = int(op.offsets.max())
        left = far(xs[0] + dx * np.arange(-J, 0), tau)
        right = far(xs[-1] + dx * np.arange(1, J + 1), tau)
        upad = np.concatenate([left, u, right])
        kernel = np.zeros(2 * J + 1)
        kernel[op.offsets + J] = op.weights
        out += np.correlate(upad, kernel, mode="valid") - op.total_weight * u
    d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2
    d1 = (u[2:] - u[:-2]) / (2.0 * dx)
    out[1:-1] += op.local_correction * d2 - op.drift_correction * d1
    out[0] = out[-1] = 0.0
    return out


def stepped_jump_term(model, grid, values):
    """The jump operator on the interior as the step evaluates it, on u =
    values(x) at tau = 0 with values(x) as the far field too: _explicit_term
    less the drift stencil (r - sigma^2/2) d1 u."""
    spec = bench_spec(rate=0.1)
    ops = assemble_operators(spec, model, grid, FarField(level=np.zeros_like, growth=values))
    u = values(grid.xs())
    d1 = (u[2:] - u[:-2]) / (2.0 * grid.dx)
    return _explicit_term(u, ops, 0.0) - (spec.rate - 0.5 * spec.sigma**2) * d1
