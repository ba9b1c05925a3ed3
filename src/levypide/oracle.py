"""Independent pricing benchmarks: an analytic jump-diffusion series and a
Monte Carlo simulator.

Both price the same dynamics as the finite-difference solver (diffusion of
volatility sigma from the option spec plus the model's jumps, drift fixed by
the discounted-forward identity) but share no code with it, so three-way
agreement is meaningful evidence of correctness.

The simulator's formulas for a family live in one entry of `_SIMULATORS`:
the compensator and the per-step jump sampler.  Simulating a new family
takes those two functions and the entry; they read the measure's parameters
but none of `levy`'s density formulas.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

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
    n_steps: int = 1
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self) -> None:
        if self.n_paths < 2:
            raise ValueError(f"n_paths must be >= 2, got {self.n_paths}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic sampling needs an even n_paths")


@dataclass(frozen=True)
class McResult:
    price: float
    stderr: float
    n_paths: int


def merton_series_price(
    spec: OptionSpec,
    model: Merton,
    S: float,
    t: float = 0.0,
    n_terms: int | None = None,
) -> float:
    """European price under lognormal jumps as a Poisson mixture of diffusion
    prices.

    Conditional on n jumps the terminal spot is lognormal, so each term is a
    plain diffusion price at an inflated volatility and a shifted spot.  Terms
    are added until the Poisson weight falls below 1e-12 (at least 10 terms);
    n_terms, if given, caps the count instead and must be >= 10.
    """
    if not isinstance(model, Merton):
        raise TypeError(f"series benchmark requires a lognormal-jump model, got {model!r}")
    if n_terms is not None and n_terms < 10:
        raise ValueError(f"n_terms must be >= 10, got {n_terms}")
    tau = spec.expiry - t
    if tau <= 0:
        raise ValueError(f"need t < expiry, got tau = {tau}")
    if model.lam == 0:
        return float(bs_price(spec, S, t))

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
        total += weight * float(bs_price(term_spec, shifted, t))
        n += 1
        weight *= lam_tau / n
        if n_terms is not None:
            if n >= n_terms:
                break
        elif weight < 1e-12 and n >= 10:
            break
    return total


def _uniform_open(gen: np.random.Generator, shape) -> np.ndarray:
    # 2^53 equispaced points strictly inside (0, 1); ndtri never sees 0 or 1.
    return (gen.integers(0, 1 << 53, size=shape) + 0.5) * 2.0**-53


def _normals(gen: np.random.Generator, shape) -> np.ndarray:
    return ndtri(_uniform_open(gen, shape))


def _pair(mean: np.ndarray, scale: np.ndarray, z: np.ndarray, antithetic: bool) -> np.ndarray:
    """mean + scale z, or the antithetic pair (mean + scale z, mean - scale z)."""
    if antithetic:
        return np.stack([mean + scale * z, mean - scale * z])
    return mean + scale * z


def _no_jumps(model: NoJumps, gen, n: int, dt: float, antithetic: bool) -> np.ndarray:
    return np.zeros((2, n) if antithetic else n)


def _merton_compensator(model: Merton) -> float:
    return model.lam * (math.exp(model.m + 0.5 * model.delta**2) - 1.0)


def _merton_jumps(model: Merton, gen, n: int, dt: float, antithetic: bool) -> np.ndarray:
    counts = gen.poisson(model.lam * dt, size=n)
    z = _normals(gen, n)
    return _pair(model.m * counts, model.delta * np.sqrt(counts), z, antithetic)


def _vg_compensator(model: VarianceGamma) -> float:
    a, b, c = model.a, model.b, model.c
    if b - a <= 1.0:
        raise ValueError(
            f"exponential moment of the jumps diverges (b - a = {b - a:g} <= 1); "
            "the risk-neutral drift is undefined"
        )
    return c * math.log((b * b - a * a) / (b * b - (a + 1.0) ** 2))


def _vg_jumps(model: VarianceGamma, gen, n: int, dt: float, antithetic: bool) -> np.ndarray:
    theta, kappa, sigma_vg = model.bm_params()
    g = gen.gamma(dt / kappa, kappa, size=n)
    z = _normals(gen, n)
    return _pair(theta * g, sigma_vg * np.sqrt(g), z, antithetic)


# Per simulated family: the compensator omega = integral of (e^z - 1) against
# the jump measure, and one time step's log-jumps for n paths, shape (n,) or
# (2, n) for antithetic pairs that share counts and subordinators and differ
# by the normals' sign.  Kept apart from the measure classes in `levy`, so the
# oracle shares no arithmetic with the solver.
_SIMULATORS = {
    NoJumps: (lambda model: 0.0, _no_jumps),
    Merton: (_merton_compensator, _merton_jumps),
    VarianceGamma: (_vg_compensator, _vg_jumps),
}


def _batch_terminal_spots(
    spec: OptionSpec,
    model: LevyModel,
    S: float,
    tau: float,
    gen: np.random.Generator,
    n: int,
    n_steps: int,
    antithetic: bool,
    omega: float,
    log_jumps: Callable,
) -> np.ndarray:
    dt = tau / n_steps
    drift = (spec.rate - 0.5 * spec.sigma**2 - omega) * dt
    vol = spec.sigma * math.sqrt(dt)
    log_s = np.full((2, n) if antithetic else n, math.log(S))
    for _ in range(n_steps):
        z = _normals(gen, n)
        jumps = log_jumps(model, gen, n, dt, antithetic)
        if antithetic:
            log_s[0] += drift + vol * z
            log_s[1] += drift - vol * z
        else:
            log_s += drift + vol * z
        log_s += jumps
    return np.exp(log_s)


def _mc_estimate(spec, model, S, mc: McConfig, statistic) -> McResult:
    """Common driver: batches, a counter-based generator per batch spawned from
    one seed, compensated final reduction.  statistic maps terminal spots to
    per-path samples; antithetic pairs are averaged into one sample each."""
    if S <= 0:
        raise ValueError(f"spot must be > 0, got {S}")
    try:
        compensator, log_jumps = _SIMULATORS[type(model)]
    except KeyError:
        raise NotImplementedError(f"no simulator for {type(model).__name__}") from None
    omega = compensator(model)  # fails fast on a non-integrable measure
    tau = spec.expiry
    n_samples = mc.n_paths // 2 if mc.antithetic else mc.n_paths
    n_batches = -(-n_samples // _BATCH)
    children = np.random.SeedSequence(mc.seed).spawn(n_batches)
    disc = math.exp(-spec.rate * tau)
    sums: list[float] = []
    sq_sums: list[float] = []
    done = 0
    for child in children:
        gen = np.random.Generator(np.random.Philox(child))
        n = min(_BATCH, n_samples - done)
        spots = _batch_terminal_spots(
            spec, model, S, tau, gen, n, mc.n_steps, mc.antithetic, omega, log_jumps
        )
        vals = disc * statistic(spots)
        if mc.antithetic:
            vals = 0.5 * (vals[0] + vals[1])
        sums.append(float(np.sum(vals)))
        sq_sums.append(float(np.sum(vals * vals)))
        done += n
    total = math.fsum(sums)
    total_sq = math.fsum(sq_sums)
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0) * n_samples / (n_samples - 1)
    return McResult(
        price=mean, stderr=math.sqrt(var / n_samples), n_paths=mc.n_paths
    )


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
