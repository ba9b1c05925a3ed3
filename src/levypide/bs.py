"""Black-Scholes closed forms: the no-jump prices used for boundary data and
validation.

The PIDE solvers work in the frame tau = T - t, x = ln(S/K),
u(tau, x) = e^(r tau) V(t, S); `pide` owns that change of variables.  `u_bs`
is the closed form written in that frame, the solver tests' reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "OptionSpec",
    "payoff",
    "bs_price",
    "u_bs",
]


@dataclass(frozen=True)
class OptionSpec:
    """Vanilla option contract plus the diffusion market parameters."""

    strike: float
    expiry: float
    rate: float
    sigma: float
    kind: str = "put"

    def __post_init__(self) -> None:
        # chained comparisons: a NaN fails every one of them
        if not 0 < self.strike < math.inf:
            raise ValueError(f"strike must be finite and > 0, got {self.strike}")
        if not 0 < self.expiry < math.inf:
            raise ValueError(f"expiry must be finite and > 0, got {self.expiry}")
        if not 0 <= self.rate < math.inf:
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if self.kind not in ("call", "put"):
            raise ValueError(f"kind must be 'call' or 'put', got {self.kind!r}")


def payoff(spec: OptionSpec, S):
    """Terminal payoff: (K - S)^+ for puts, (S - K)^+ for calls."""
    S = np.asarray(S, dtype=float)
    if spec.kind == "put":
        out = np.maximum(spec.strike - S, 0.0)
    else:
        out = np.maximum(S - spec.strike, 0.0)
    return float(out) if out.ndim == 0 else out


def bs_price(spec: OptionSpec, S, t: float = 0.0):
    """No-jump closed-form price at calendar time t < T; vectorized over S."""
    S_arr = np.asarray(S, dtype=float)
    if np.any(S_arr <= 0):
        raise ValueError("spot must be > 0")
    if t >= spec.expiry:
        raise ValueError(f"calendar time {t} is not before expiry {spec.expiry}")
    tau = spec.expiry - t
    sq = spec.sigma * math.sqrt(tau)
    d1 = (np.log(S_arr / spec.strike) + (spec.rate + 0.5 * spec.sigma**2) * tau) / sq
    d2 = d1 - sq
    disc = spec.strike * math.exp(-spec.rate * tau)
    if spec.kind == "call":
        out = S_arr * special.ndtr(d1) - disc * special.ndtr(d2)
    else:
        out = disc * special.ndtr(-d2) - S_arr * special.ndtr(-d1)
    return float(out) if out.ndim == 0 else out


def u_bs(spec: OptionSpec, tau: float, x):
    """Transformed no-jump solution u(tau, x) = e^(r tau) V_bs(T - tau, K e^x).

    At tau = 0 the d1/d2 formulas have a removable singularity; the payoff
    limit is returned directly.
    """
    if tau < 0 or tau > spec.expiry:
        raise ValueError(f"tau must lie in [0, {spec.expiry}], got {tau}")
    x_arr = np.asarray(x, dtype=float)
    S = spec.strike * np.exp(x_arr)
    if tau == 0.0:
        return payoff(spec, S)
    return math.exp(spec.rate * tau) * bs_price(spec, S, spec.expiry - tau)
