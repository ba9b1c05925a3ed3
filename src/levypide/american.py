"""Penalty-method solver for the American put complementarity problem.

The American put value dominates both the payoff and the European value.  The
solver adds the penalty source eps^-1 e^(x^-) (w - u)^+ to the transformed
equation, where w(tau, x) = e^(r tau) Phi(K e^x) is the transformed payoff;
as eps decreases the solution converges to the complementarity solution from
below the obstacle by O(eps).  The time step, the march and the penalty
sweep are pide's (`step_imex`, `_march`, `_penalty_sweep`), and an American
job (a `jobs.Job` with a PenaltyConfig) is priced through `jobs.price_jobs`;
this module builds only the data the sweep reads, a `pide.Penalty` on the
operators of the SBDF2 step and one on their start substep's: the obstacle
at tau = 0, the scale (dt/eps) e^(x^-) for each of the two step sizes, and
the PenaltyConfig's max_picard and picard_tol.

`lcp_residual` checks a surface against the complementarity system with the
operators the surface carries (`PriceSurface.ops`): the spec, grid, far field
and jump measure of the march that made it, so it takes no other argument.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bs import OptionSpec, payoff
from .levy import LevyModel
from .pide import (
    FarField,
    GridSpec,
    ImexOperators,
    Penalty,
    PicardError,
    PriceSurface,
    assemble_operators,
    _check_count,
    _explicit_term,
)

__all__ = [
    "PenaltyConfig",
    "ExerciseBoundary",
    "LcpReport",
    "PicardError",
    "exercise_asymptote",
    "StructuralWarning",
    "penalized_operators",
    "extract_boundary",
    "lcp_residual",
]


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty strength and fixed-point iteration controls.

    picard_tol = None resolves to 1e-8 * strike at solve time.
    """

    epsilon: float = 1e-3
    max_picard: int = 50
    picard_tol: float | None = None

    def __post_init__(self) -> None:
        _check_count("max_picard", self.max_picard)
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not self.max_picard >= 1:
            raise ValueError(f"max_picard must be >= 1, got {self.max_picard}")
        if self.picard_tol is not None and not 0 < self.picard_tol < math.inf:
            raise ValueError(f"picard_tol must be finite and > 0, got {self.picard_tol}")


class StructuralWarning(RuntimeWarning):
    """The measure violates the structural condition: the penalized solve
    proceeds, but the complementarity characterization of the American price
    is not guaranteed."""


@dataclass(frozen=True)
class ExerciseBoundary:
    """Early exercise boundary S_f per time level; NaN marks levels with an
    empty exercise region."""

    taus: np.ndarray
    s_f: np.ndarray

    def to_csv(self, path: str) -> None:
        """Write the boundary as `tau,s_f` rows, 9 significant digits."""
        with open(path, "w", newline="") as fh:
            fh.write("tau,s_f\n")
            for tau, s in zip(self.taus, self.s_f):
                fh.write(f"{tau:.9g},{s:.9g}\n")


def exercise_asymptote(spec: OptionSpec) -> FarField:
    """Far-field values of the transformed American put: deep in the money the
    option is exercised, so u = e^(r tau) (K - S) there; 0 on the other side."""
    K = spec.strike
    return FarField(
        level=lambda x: np.zeros(np.shape(x)),
        growth=lambda x: np.where(np.less(x, 0.0), K * (1.0 - np.exp(x)), 0.0),
    )


def penalized_operators(
    spec: OptionSpec, model: LevyModel, grid: GridSpec, pcfg: PenaltyConfig
) -> ImexOperators:
    """What an American job marches: the operators with the exercise far
    field, which with their start each carry a penalty (`pide.Penalty`) for
    their own dt."""
    if spec.kind != "put":
        raise ValueError("the penalty solver covers put options only")
    ops = assemble_operators(spec, model, grid, boundary=exercise_asymptote(spec))
    xs_int = ops.xs[1:-1]
    tol = pcfg.picard_tol if pcfg.picard_tol is not None else 1e-8 * spec.strike
    obstacle = payoff(spec, spec.strike * np.exp(xs_int))
    weight = np.exp(np.minimum(xs_int, 0.0))

    def penalty(step: ImexOperators) -> Penalty:
        return Penalty(obstacle, (step.dt / pcfg.epsilon) * weight, pcfg.max_picard, tol)

    return replace(ops, penalty=penalty(ops), start=replace(ops.start, penalty=penalty(ops.start)))


def extract_boundary(surface: PriceSurface) -> ExerciseBoundary:
    """Per time level, the largest spot S <= K whose price sits on the payoff,
    within 1e-6 * strike.

    Levels whose exercise region is empty get NaN.  Monotonicity of the
    boundary is reported by callers, not enforced.  A call surface is
    refused: its exercise region, if any, lies above the strike.
    """
    spec = surface.spec
    if spec.kind != "put":
        raise ValueError(f"extract_boundary covers put surfaces only, got a {spec.kind}")
    tol = 1e-6 * spec.strike
    mask = surface.xs <= 0.0
    S_nodes = spec.strike * np.exp(surface.xs[mask])
    intrinsic = spec.strike - S_nodes
    discount = np.array([math.exp(-spec.rate * tau) for tau in surface.taus])
    on_payoff = discount[:, None] * surface.u[:, mask] <= intrinsic + tol
    # S_nodes increases, so the largest spot on the payoff is each row's last True
    last = on_payoff.shape[1] - 1 - np.argmax(on_payoff[:, ::-1], axis=1)
    s_f = np.where(on_payoff.any(axis=1), S_nodes[last], np.nan)
    return ExerciseBoundary(taus=surface.taus.copy(), s_f=s_f)


@dataclass(frozen=True)
class LcpReport:
    """Discrete residuals of the complementarity system, max over interior
    nodes and tau >= 2 dt.

    max_ineq_violation combines the two one-sided violations; the component
    fields keep them separate.  pde_residual_sup is the largest positive PDE
    residual (the penalty source magnitude for a penalized surface).
    """

    max_ineq_violation: float
    max_complementarity: float
    pde_violation: float
    obstacle_violation: float
    pde_residual_sup: float


def lcp_residual(surface: PriceSurface) -> LcpReport:
    """Recompute the scheme's residuals from a stored surface, on the levels
    the SBDF2 step made (tau >= 2 dt):

        ((3/2) u_n - 2 u_(n-1) + u_(n-2)/2) / dt - D u_n - (2 E(u_(n-1)) - E(u_(n-2))),

    with D and E the surface's own operators (surface.ops), far field included.
    For a penalized American surface the PDE residual equals the (nonnegative)
    penalty source, so the first inequality holds by construction and the
    complementarity product is the residual times the obstacle gap; a European
    surface reports a near-zero PDE residual.  A surface that does not hold
    every level of a grid with n_time >= 2 is refused.
    """
    ops, taus, u = surface.ops, surface.taus, surface.u
    n_levels = ops.grid.n_time + 1
    if len(taus) != n_levels or n_levels < 3:
        raise ValueError(
            f"lcp_residual needs every level of a grid with n_time >= 2: the surface "
            f"holds {len(taus)} levels, its grid has {n_levels}"
        )
    spec, xs, dt, dx = ops.spec, ops.xs, ops.dt, ops.grid.dx
    w0 = payoff(spec, spec.strike * np.exp(xs))
    sig2h = 0.5 * spec.sigma**2

    pde_viol = 0.0
    obstacle_viol = 0.0
    comp = 0.0
    resid_sup = 0.0
    # levels n >= 2 come from SBDF2 steps, which take E of the two levels before
    e_before = _explicit_term(u[0], ops, taus[0])
    e_prev = _explicit_term(u[1], ops, taus[1])
    for n in range(2, len(taus)):
        u_new = u[n]
        d2 = (u_new[2:] - 2.0 * u_new[1:-1] + u_new[:-2]) / dx**2
        bdf = (1.5 * u_new[1:-1] - 2.0 * u[n - 1][1:-1] + 0.5 * u[n - 2][1:-1]) / dt
        residual = bdf - sig2h * d2 - (2.0 * e_prev - e_before)
        e_before, e_prev = e_prev, _explicit_term(u_new, ops, taus[n])
        w = math.exp(spec.rate * taus[n]) * w0
        gap = u_new[1:-1] - w[1:-1]
        pde_viol = max(pde_viol, float(np.max(-residual, initial=0.0)))
        resid_sup = max(resid_sup, float(np.max(residual, initial=0.0)))
        obstacle_viol = max(obstacle_viol, float(np.max(-gap, initial=0.0)))
        comp = max(comp, float(np.max(np.abs(residual * gap), initial=0.0)))
    return LcpReport(
        max_ineq_violation=max(pde_viol, obstacle_viol),
        max_complementarity=comp,
        pde_violation=pde_viol,
        obstacle_violation=obstacle_viol,
        pde_residual_sup=resid_sup,
    )
