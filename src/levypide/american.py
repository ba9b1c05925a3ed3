"""Penalty-method solver for the American put complementarity problem.

The American put value dominates both the payoff and the European value.  The
solver adds the penalty source eps^-1 e^(x^-) (w - u)^+ to the transformed
equation, where w(tau, x) = e^(r tau) Phi(K e^x) is the transformed payoff;
as eps decreases the solution converges to the complementarity solution from
below the obstacle by O(eps).  The time step and the march are pide's
(`step_imex`, `_march`); this module supplies only the penalty sweep that
stands in for the step's banded solve.  It runs a fixed-point iteration: the
penalty's active set lags one iterate while its value is taken implicitly as
an extra diagonal, which keeps every inner solve tridiagonal and converges in
a few sweeps even for eps much smaller than dt.  The sweep stops when the
update falls below picard_tol, or, if another sweep is allowed, when the new
iterate has the active set the sweep just used: the next sweep would repeat
that solve bit for bit and stop on a zero update, so the stopping rule saves
a solve without changing a bit of the result.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bs import OptionSpec, payoff
from .levy import LevyModel, integrability_check, structural_condition_check
from .pide import (
    FarField,
    GridSpec,
    PriceSurface,
    assemble_operators,
    build_grid,
    european_asymptote,
    _implicit_solve,
    _march,
)

__all__ = [
    "PenaltyConfig",
    "ExerciseBoundary",
    "LcpReport",
    "PicardError",
    "exercise_asymptote",
    "penalty_term",
    "solve_american_penalized",
    "extract_boundary",
    "boundary_to_csv",
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
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not self.max_picard >= 1:
            raise ValueError(f"max_picard must be >= 1, got {self.max_picard}")
        if self.picard_tol is not None and not 0 < self.picard_tol < math.inf:
            raise ValueError(f"picard_tol must be finite and > 0, got {self.picard_tol}")


class PicardError(RuntimeError):
    """Penalty fixed-point iteration failed to converge at some time step."""

    def __init__(self, message: str, node: int, x: float, gap: float, iterations: int):
        super().__init__(message)
        self.node = node
        self.x = x
        self.gap = gap
        self.iterations = iterations


@dataclass(frozen=True)
class ExerciseBoundary:
    """Early exercise boundary S_f per time level; NaN marks levels with an
    empty exercise region."""

    taus: np.ndarray
    s_f: np.ndarray

    def to_csv(self, path: str) -> None:
        boundary_to_csv(self, path)


def exercise_asymptote(spec: OptionSpec) -> FarField:
    """Far-field values of the transformed American put: deep in the money the
    option is exercised, so u = e^(r tau) (K - S) there; 0 on the other side."""
    K = spec.strike
    return FarField(
        rate=spec.rate,
        level=lambda x: np.zeros(np.shape(x)),
        growth=lambda x: np.where(np.less(x, 0.0), K * (1.0 - np.exp(x)), 0.0),
    )


def penalty_term(
    u_vec: np.ndarray, tau: float, xs: np.ndarray, spec: OptionSpec, eps: float
) -> np.ndarray:
    """The penalty source eps^-1 e^(x^-) (e^(r tau) Phi(K e^x) - u)^+, elementwise."""
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    w = math.exp(spec.rate * tau) * payoff(spec, spec.strike * np.exp(xs))
    weight = np.exp(np.minimum(xs, 0.0))
    return weight * np.maximum(w - u_vec, 0.0) / eps


def solve_american_penalized(
    spec: OptionSpec,
    model: LevyModel,
    grid: GridSpec,
    pcfg: PenaltyConfig = PenaltyConfig(),
) -> PriceSurface:
    """March the penalized equation; per step, iterate the penalty to a fixed point."""
    if spec.kind != "put":
        raise ValueError("the penalty solver covers put options only")
    report = integrability_check(model)
    if not report.passed:
        raise ValueError(f"measure fails the integrability check: {report.detail}")
    structural = structural_condition_check(model, spec.rate)
    if not structural.passed:
        warnings.warn(
            "structural condition violated (upward-jump budget exceeds the rate: "
            f"{structural.detail}); the penalized solve proceeds, but the "
            "complementarity characterization of the American price is not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )

    ops = assemble_operators(spec, model, grid, boundary=exercise_asymptote(spec))
    xs, taus = ops.xs, grid.taus(spec.expiry)
    tol = pcfg.picard_tol if pcfg.picard_tol is not None else 1e-8 * spec.strike
    dt = ops.dt
    w0 = payoff(spec, spec.strike * np.exp(xs))
    pen_scale = (dt / pcfg.epsilon) * np.exp(np.minimum(xs[1:-1], 0.0))

    def sweep(level: int, rhs: np.ndarray, u_next: np.ndarray, u_prev: np.ndarray) -> None:
        w = math.exp(spec.rate * taus[level]) * w0
        w_int = w[1:-1]
        u_iter = u_prev
        active = u_iter[1:-1] < w_int
        for k in range(pcfg.max_picard):
            pen = pen_scale * active
            u_next[1:-1] = _implicit_solve(ops, rhs + pen * w_int, extra_diag=pen)
            diff = float(np.max(np.abs(u_next - u_iter)))
            if diff < tol:
                return
            # the same active set would repeat this solve bit for bit in the
            # next sweep, which then stops on diff == 0
            next_active = u_next[1:-1] < w_int
            if k + 1 < pcfg.max_picard and np.array_equal(next_active, active):
                return
            active = next_active
            u_iter = u_next.copy()
        worst = int(np.argmax(np.abs(u_next - u_prev)))
        raise PicardError(
            f"penalty iteration did not reach {tol:g} within {pcfg.max_picard} sweeps "
            f"at time level {level} (worst node {worst}, x = {xs[worst]:+.4f}, "
            f"last update {diff:.3g}; dt = {dt:.4g}, "
            f"dt*W = {dt * ops.integral.total_weight:.4g})",
            node=worst,
            x=float(xs[worst]),
            gap=diff,
            iterations=pcfg.max_picard,
        )

    return _march(ops, sweep)


def extract_boundary(surface: PriceSurface, tol: float | None = None) -> ExerciseBoundary:
    """Per time level, the largest spot S <= K whose price sits on the payoff.

    tol defaults to 1e-6 * strike.  Levels whose exercise region is empty get
    NaN.  Monotonicity of the boundary is reported by callers, not enforced.
    """
    spec = surface.spec
    if tol is None:
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


def boundary_to_csv(boundary: ExerciseBoundary, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("tau,s_f\n")
        for tau, s in zip(boundary.taus, boundary.s_f):
            fh.write(f"{tau:.9g},{s:.9g}\n")


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


def lcp_residual(
    surface: PriceSurface,
    spec: OptionSpec,
    model: LevyModel,
    grid: GridSpec,
    boundary: str = "american",
) -> LcpReport:
    """Recompute the scheme's residuals from a stored surface.

    For a penalized American surface the PDE residual equals the (nonnegative)
    penalty source, so the first inequality holds by construction and the
    complementarity product is the residual times the obstacle gap.  Feeding a
    European surface with boundary="european" reports a near-zero PDE residual.
    """
    if boundary == "american":
        bfn = exercise_asymptote(spec)
    elif boundary == "european":
        bfn = european_asymptote(spec)
    else:
        raise ValueError(f"boundary must be 'american' or 'european', got {boundary!r}")

    ops = assemble_operators(spec, model, grid, boundary=bfn)
    xs, taus, _ = build_grid(spec, grid)
    dt = ops.dt
    dx = grid.dx
    w0 = payoff(spec, spec.strike * np.exp(xs))
    sig2h = 0.5 * spec.sigma**2
    drift_c = spec.rate - sig2h

    pde_viol = 0.0
    obstacle_viol = 0.0
    comp = 0.0
    resid_sup = 0.0
    for n in range(2, len(taus)):
        u_new, u_old = surface.u[n], surface.u[n - 1]
        jumps = ops.jump_term(u_old, taus[n - 1])
        d1 = (u_old[2:] - u_old[:-2]) / (2.0 * dx)
        d2 = (u_new[2:] - 2.0 * u_new[1:-1] + u_new[:-2]) / dx**2
        residual = (u_new[1:-1] - u_old[1:-1]) / dt - sig2h * d2 - drift_c * d1 - jumps[1:-1]
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
