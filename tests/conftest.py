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
