"""Independent pricing benchmarks: an analytic jump-diffusion series and a
Monte Carlo simulator.

Both price the same dynamics as the finite-difference solver (diffusion of
volatility sigma from the option spec plus the model's jumps, drift fixed by
the discounted-forward identity) but share no code with it, so three-way
agreement is meaningful evidence of correctness.  Both price at t = 0.

The log-price increment of every simulated family is a Levy increment whose
law over any horizon is known exactly, so the simulator draws each path's
terminal spot in one step of length T: first the diffusion normals, then the
family's jumps (the Poisson counts or the gamma subordinator, then the jump
normals).  The formulas for a family live in one entry of `_SIMULATORS`: the
compensator and the jump sampler.  Simulating a new family takes those two
functions and the entry; they read the measure's parameters but none of
`levy`'s density formulas.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .bs import OptionSpec, bs_price, payoff
from .levy import LevyModel, Merton, NoJumps, VarianceGamma

__all__ = [
    "McConfig",
    "McResult",
    "merton_series_price",
    "mc_price",
    "mc_discounted_forward",
]

# Paths are simulated in batches of this size; the per-batch partial sums are
# combined with math.fsum so the final reduction is compensated.
_BATCH = 1 << 14


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_paths < 2:
            raise ValueError(f"n_paths must be >= 2, got {self.n_paths}")


@dataclass(frozen=True)
class McResult:
    price: float
    stderr: float
    n_paths: int


def merton_series_price(spec: OptionSpec, model: Merton, S: float) -> float:
    """European price at t = 0 under lognormal jumps as a Poisson mixture of
    diffusion prices.

    Conditional on n jumps the terminal spot is lognormal, so each term is a
    plain diffusion price at an inflated volatility and a shifted spot.  Terms
    are added until the Poisson weight falls below 1e-12 (at least 10 terms).
    """
    if not isinstance(model, Merton):
        raise TypeError(f"series benchmark requires a lognormal-jump model, got {model!r}")
    if model.lam == 0:
        return float(bs_price(spec, S))

    tau = spec.expiry
    kappa_bar = math.exp(model.m + 0.5 * model.delta**2) - 1.0
    lam_tau = model.lam * tau
    jump_drift = model.m + 0.5 * model.delta**2
    total = 0.0
    weight = math.exp(-lam_tau)
    n = 0
    while True:
        sigma_n = math.sqrt(spec.sigma**2 + n * model.delta**2 / tau)
        shifted = S * math.exp(n * jump_drift - lam_tau * kappa_bar)
        term_spec = dataclasses.replace(spec, sigma=sigma_n)
        total += weight * float(bs_price(term_spec, shifted))
        n += 1
        weight *= lam_tau / n
        if weight < 1e-12 and n >= 10:
            break
    return total


def _uniform_open(gen: np.random.Generator, shape) -> np.ndarray:
    # 2^53 equispaced points strictly inside (0, 1); ndtri never sees 0 or 1.
    return (gen.integers(0, 1 << 53, size=shape) + 0.5) * 2.0**-53


def _normals(gen: np.random.Generator, shape) -> np.ndarray:
    return ndtri(_uniform_open(gen, shape))


def _no_jumps(model: NoJumps, gen, n: int, tau: float) -> np.ndarray:
    return np.zeros(n)


def _merton_compensator(model: Merton) -> float:
    return model.lam * (math.exp(model.m + 0.5 * model.delta**2) - 1.0)


def _merton_jumps(model: Merton, gen, n: int, tau: float) -> np.ndarray:
    counts = gen.poisson(model.lam * tau, size=n)
    z = _normals(gen, n)
    return model.m * counts + model.delta * np.sqrt(counts) * z


def _vg_compensator(model: VarianceGamma) -> float:
    a, b, c = model.a, model.b, model.c
    if b - a <= 1.0:
        raise ValueError(
            f"exponential moment of the jumps diverges (b - a = {b - a:g} <= 1); "
            "the risk-neutral drift is undefined"
        )
    return c * math.log((b * b - a * a) / (b * b - (a + 1.0) ** 2))


def _vg_jumps(model: VarianceGamma, gen, n: int, tau: float) -> np.ndarray:
    theta, kappa, sigma_vg = model.bm_params()
    g = gen.gamma(tau / kappa, kappa, size=n)
    z = _normals(gen, n)
    return theta * g + sigma_vg * np.sqrt(g) * z


# Per simulated family: the compensator omega = integral of (e^z - 1) against
# the jump measure, and the sum of n paths' log-jumps over a horizon tau.
# Kept apart from the measure classes in `levy`, so the oracle shares no
# arithmetic with the solver.
_SIMULATORS = {
    NoJumps: (lambda model: 0.0, _no_jumps),
    Merton: (_merton_compensator, _merton_jumps),
    VarianceGamma: (_vg_compensator, _vg_jumps),
}


def _mc_estimate(spec, model, S, mc: McConfig, statistic) -> McResult:
    """Common driver: batches, a counter-based generator per batch spawned from
    one seed, compensated final reduction.  statistic maps terminal spots to
    per-path samples."""
    if S <= 0:
        raise ValueError(f"spot must be > 0, got {S}")
    try:
        compensator, log_jumps = _SIMULATORS[type(model)]
    except KeyError:
        raise NotImplementedError(f"no simulator for {type(model).__name__}") from None
    omega = compensator(model)  # fails fast on a non-integrable measure
    tau = spec.expiry
    drift = (spec.rate - 0.5 * spec.sigma**2 - omega) * tau
    vol = spec.sigma * math.sqrt(tau)
    disc = math.exp(-spec.rate * tau)
    n_paths = mc.n_paths
    children = np.random.SeedSequence(mc.seed).spawn(-(-n_paths // _BATCH))
    sums: list[float] = []
    sq_sums: list[float] = []
    for k, child in enumerate(children):
        gen = np.random.Generator(np.random.Philox(child))
        n = min(_BATCH, n_paths - k * _BATCH)
        diffusion = drift + vol * _normals(gen, n)
        spots = np.exp(math.log(S) + diffusion + log_jumps(model, gen, n, tau))
        vals = disc * statistic(spots)
        sums.append(float(np.sum(vals)))
        sq_sums.append(float(np.sum(vals * vals)))
    mean = math.fsum(sums) / n_paths
    var = max(math.fsum(sq_sums) / n_paths - mean * mean, 0.0) * n_paths / (n_paths - 1)
    return McResult(price=mean, stderr=math.sqrt(var / n_paths), n_paths=n_paths)


def mc_price(
    spec: OptionSpec, model: LevyModel, S: float, mc: McConfig = McConfig()
) -> McResult:
    """Discounted-payoff estimate with a standard error.

    Supported jump models: none, lognormal (compound Poisson), and the
    infinite-activity gamma-subordinated family; others raise
    NotImplementedError.
    """
    return _mc_estimate(spec, model, S, mc, lambda spots: payoff(spec, spots))


def mc_discounted_forward(
    spec: OptionSpec, model: LevyModel, S: float, mc: McConfig = McConfig()
) -> McResult:
    """Estimate of e^(-r T) E[S_T].  Should reproduce the spot: the simulated
    drift makes the discounted spot a martingale, so this is a bias check."""
    return _mc_estimate(spec, model, S, mc, lambda spots: spots)
