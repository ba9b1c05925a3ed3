"""Penalty-method solver for the American put complementarity problem.

The American put value dominates both the payoff and the European value.  The
solver adds the penalty source eps^-1 e^(x^-) (w - u)^+ to the transformed
equation, where w(tau, x) = e^(r tau) Phi(K e^x) is the transformed payoff;
as eps decreases the solution converges to the complementarity solution from
below the obstacle by O(eps).  The time step and the march are pide's
(`step_imex`, `_march`), and an American job (a `jobs.Job` with a
PenaltyConfig) is priced through `jobs.price_jobs`; this module supplies
only the penalty sweep that the operators carry (`ImexOperators.sweep`) and
that stands in for the step's banded solve.  An SBDF2 step solves

    ((3/2) I - dt D + P) u_(n+1) = rhs + P w,

with P = (dt/eps) e^(x^-) on the active nodes (u < w) and 0 elsewhere; a
start substep solves the same system with I - (dt/4) D, dt/4 in P and w at the
substep's tau.  The sweep is a fixed-point iteration: the penalty's active
set lags one iterate while its value is taken implicitly as an extra
diagonal, which keeps every inner solve tridiagonal and converges in a few
sweeps even for eps much smaller than dt.  After each sweep's solve the
stopping rule asks, in this order: if another sweep is allowed, does the new
iterate have the active set the sweep just used?  Then the next sweep would
repeat that solve bit for bit and stop on a zero update, so the sweep stops
without changing a bit of the result, and without computing the update
norm.  Otherwise it stops when the update |u_next - u_iter|_inf falls below
picard_tol; on the last allowed sweep it raises PicardError with that
update.  A sweep whose active set is empty adds nothing to the band, so it
back-substitutes through the factors assembly made (`dgttrs`, which gives
the bits of a fresh elimination of the same band); any other sweep
eliminates the band plus its penalty diagonal afresh (`dgtsv`).  The penalty
scale (dt/eps) e^(x^-) is computed once for each of the two step sizes.

`lcp_residual` checks a surface against the complementarity system with the
operators the surface carries (`PriceSurface.ops`): the spec, grid, far field
and jump measure of the march that made it, so it takes no other argument.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bs import OptionSpec, payoff
from .levy import LevyModel
from .pide import (
    FarField,
    GridSpec,
    ImexOperators,
    PriceSurface,
    assemble_operators,
    _check_count,
    _explicit_term,
    _implicit_solve,
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


class PicardError(RuntimeError):
    """Penalty fixed-point iteration failed to converge at some time step."""

    def __init__(self, message: str, node: int, x: float, gap: float, iterations: int):
        super().__init__(message)
        self.node = node
        self.x = x
        self.gap = gap
        self.iterations = iterations

    def __reduce__(self):
        # as GrowthGuardError's: the pickle carries every field, not the
        # message alone
        return type(self), (str(self), self.node, self.x, self.gap, self.iterations)


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
    field, which with their start carry the penalty sweep
    (`ImexOperators.sweep`)."""
    if spec.kind != "put":
        raise ValueError("the penalty solver covers put options only")
    ops = assemble_operators(spec, model, grid, boundary=exercise_asymptote(spec))

    xs = ops.xs
    tol = pcfg.picard_tol if pcfg.picard_tol is not None else 1e-8 * spec.strike
    w0_int = payoff(spec, spec.strike * np.exp(xs[1:-1]))
    weight = np.exp(np.minimum(xs[1:-1], 0.0))
    # (dt / eps) e^(x^-) for the SBDF2 step's dt and the start substep's
    pen_scales = {step.dt: (step.dt / pcfg.epsilon) * weight for step in (ops, ops.start)}

    def sweep(
        step: ImexOperators, tau: float, rhs: np.ndarray, u_next: np.ndarray, u_prev: np.ndarray
    ) -> None:
        # step: the operators of the SBDF2 step or start substep this sweep serves
        dt = step.dt
        w_int = math.exp(spec.rate * tau) * w0_int
        pen_scale = pen_scales[dt]
        u_iter = u_prev
        active = u_iter[1:-1] < w_int
        for k in range(pcfg.max_picard):
            if np.count_nonzero(active):
                pen = pen_scale * active
                u_next[1:-1] = _implicit_solve(step, rhs + pen * w_int, extra_diag=pen)
            else:
                # band + 0 is the band that assembly factored
                u_next[1:-1] = _implicit_solve(step, rhs)
            # the same active set would repeat this solve bit for bit in the
            # next sweep, which then stops on a zero update
            next_active = u_next[1:-1] < w_int
            if k + 1 < pcfg.max_picard and next_active.tobytes() == active.tobytes():
                return
            diff = float(np.abs(u_next - u_iter).max())
            if diff < tol:
                return
            active = next_active
            u_iter = u_next.copy()
        worst = int(np.argmax(np.abs(u_next - u_prev)))
        raise PicardError(
            f"penalty iteration did not reach {tol:g} within {pcfg.max_picard} sweeps "
            f"at tau = {tau:.6g} (worst node {worst}, x = {xs[worst]:+.4f}, "
            f"last update {diff:.3g}; dt = {dt:.4g}, "
            f"dt*W = {dt * ops.integral.total_weight:.4g})",
            node=worst,
            x=float(xs[worst]),
            gap=diff,
            iterations=pcfg.max_picard,
        )

    ops.sweep = ops.start.sweep = sweep
    return ops


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
