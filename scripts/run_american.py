"""Penalty-strength sweep for the American put under lognormal jumps.

For each epsilon the script reports the at-the-money price, the early
exercise premium over the European solve, the worst obstacle shortfall
max(payoff - price)^+ across the surface, and the complementarity residuals.
Optionally writes the exercise boundary of the tightest run as CSV.

Usage: python3 scripts/run_american.py [--rate R] [--epsilons 1e-2,1e-3]
       [--boundary CSV]
"""
import argparse
import math
import sys
import warnings

import numpy as np

from levypide import (
    GridSpec,
    Merton,
    OptionSpec,
    PenaltyConfig,
    extract_boundary,
    lcp_residual,
    solve_american_penalized,
    solve_european,
)
from levypide.bs import payoff


def worst_shortfall(surface) -> float:
    spec = surface.spec
    phi = payoff(spec, spec.strike * np.exp(surface.xs))
    worst = 0.0
    for k, tau in enumerate(surface.taus):
        V = math.exp(-spec.rate * tau) * surface.u[k]
        worst = max(worst, float(np.max(phi - V)))
    return worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rate", type=float, default=0.1)
    ap.add_argument(
        "--epsilons",
        default="1e-1,1e-2,1e-3,1e-4",
        help="comma-separated penalty strengths, tightest last",
    )
    ap.add_argument("--grid-n", type=int, default=400)
    ap.add_argument("--grid-m", type=int, default=200)
    ap.add_argument("--boundary", help="write the tightest run's exercise boundary")
    args = ap.parse_args()

    eps_list = [float(tok) for tok in args.epsilons.split(",")]
    spec = OptionSpec(strike=100.0, expiry=1.0, rate=args.rate, sigma=0.23, kind="put")
    model = Merton(lam=0.1, m=-0.2, delta=0.15)
    grid = GridSpec(n_space=args.grid_n, n_time=args.grid_m)

    european = solve_european(spec, model, grid)
    eu_atm = european.price_at(0.0, 100.0)
    print(f"European V(0, 100) = {eu_atm:.5f}  (r = {args.rate:g})")
    print(
        f"{'epsilon':>9}  {'V_am(100)':>10}  {'premium':>9}  {'shortfall':>10}  "
        f"{'complement.':>11}  {'resid_sup':>10}"
    )

    last = None
    for eps in eps_list:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            am = solve_american_penalized(spec, model, grid, PenaltyConfig(epsilon=eps))
        rep = lcp_residual(am)
        atm = am.price_at(0.0, 100.0)
        print(
            f"{eps:>9g}  {atm:>10.5f}  {atm - eu_atm:>9.5f}  "
            f"{worst_shortfall(am):>10.5f}  {rep.max_complementarity:>11.4g}  "
            f"{rep.pde_residual_sup:>10.4g}"
        )
        last = am

    if args.boundary and last is not None:
        b = extract_boundary(last)
        b.to_csv(args.boundary)
        print(
            f"boundary written to {args.boundary}: s_f goes {b.s_f[0]:.2f} -> "
            f"{b.s_f[-1]:.2f} as tau goes 0 -> {spec.expiry:g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
