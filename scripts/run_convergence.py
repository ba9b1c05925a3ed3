"""Grid-refinement study for the IMEX solver.

With the jump measure switched off the solver is compared against the
closed form; with jumps on, against the Poisson mixture series.  Both step
sizes are halved together.  The scheme is second order in space and, with
its SBDF2 time step, second order in time, so the error ratios tend to 4
(order 2) as the grid is refined.

Usage: python3 scripts/run_convergence.py [--rate R] [--levels 4]
"""
import argparse
import math
import sys

import numpy as np

from levypide import GridSpec, Merton, NoJumps, OptionSpec, solve_european
from levypide.bs import bs_price
from levypide.oracle import merton_series_price


def sweep(spec, model, reference, levels: int) -> None:
    S = np.linspace(80.0, 125.0, 10)
    ref = np.array([reference(s) for s in S])
    prev = None
    print(f"{'N':>6} {'M':>6} {'dx':>9} {'dt':>9} {'max err':>11} {'ratio':>7} {'order':>7}")
    for k in range(levels):
        n, m = 100 * 2**k, 50 * 2**k
        surf = solve_european(spec, model, GridSpec(n_space=n, n_time=m))
        err = float(np.max(np.abs(surf.price_at(0.0, S) - ref)))
        if prev is None:
            print(f"{n:>6} {m:>6} {8.0 / n:>9.4f} {1.0 / m:>9.4f} {err:>11.3e} {'':>7} {'':>7}")
        else:
            ratio = prev / err
            print(
                f"{n:>6} {m:>6} {8.0 / n:>9.4f} {1.0 / m:>9.4f} {err:>11.3e} "
                f"{ratio:>7.2f} {math.log2(ratio):>7.2f}"
            )
        prev = err


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rate", type=float, default=0.1)
    ap.add_argument("--levels", type=int, default=4, help="refinement levels from N=100")
    args = ap.parse_args()

    spec = OptionSpec(strike=100.0, expiry=1.0, rate=args.rate, sigma=0.23, kind="put")

    print("diffusion only, against the closed form:")
    sweep(spec, NoJumps(), lambda s: float(bs_price(spec, s)), args.levels)

    model = Merton(lam=0.1, m=-0.2, delta=0.15)
    print("\nlognormal jumps, against the mixture series:")
    sweep(spec, model, lambda s: merton_series_price(spec, model, s), args.levels)
    return 0


if __name__ == "__main__":
    sys.exit(main())
