"""IMEX finite-difference solver for the transformed jump-diffusion pricing equation.

In the frame tau = T - t, x = ln(S/K), u = e^(r tau) V, the European price
solves

    du/dtau = (sigma^2/2) u_xx + (r - sigma^2/2) u_x
              + integral of [u(x+z) - u(x) - (e^z - 1) u_x(x)] nu(dz),

with u(0, x) equal to the transformed payoff.  The diffusion block is
implicit (one tridiagonal solve per step), the drift and the jump integral
are explicit.  The discrete jump operator is calibrated so that it
annihilates samples of e^x exactly, the discrete counterpart of the identity
that makes the discounted stock a martingale.

`step_imex` is the one time step of both the European and the American
solve.  Its optional `solve` hook replaces the banded solve and fills the
new level's interior (the American solve passes its penalty sweep); every
step, hooked or not, ends in the same growth guard.

The large-jump part of the operator is a correlation of the padded node
vector with a kernel of 2J+1 lattice weights.  Kernels with J below
_FFT_MIN_OFFSET use the direct O(N J) `np.correlate`; longer ones use a
circular convolution through a real FFT, with the kernel's transform computed
once at assembly.  The two agree to roundoff (relative difference below
1e-15); the cut-over is where their per-apply timings cross.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from .bs import OptionSpec, payoff
from .levy import (
    LevyModel,
    NoJumps,
    integrability_check,
    shape_witness,
    truncated_second_moment,
    density,
)

__all__ = [
    "GridSpec",
    "PriceSurface",
    "IntegralOperator",
    "ImexOperators",
    "build_grid",
    "european_asymptote",
    "assemble_integral_operator",
    "assemble_operators",
    "step_imex",
    "solve_european",
    "price_at",
    "surface_to_csv",
    "surface_from_csv",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid: x in [-L, L] with N steps, tau in [0, T] with M steps.

    z_max truncates the jump integral lattice (default: the full half-width)
    and delta is the split radius below which small jumps are folded into
    local derivative corrections (default: one spatial step; always snapped to
    a positive multiple of dx during assembly).
    """

    half_width: float = 4.0
    n_space: int = 400
    n_time: int = 200
    z_max: float | None = None
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.half_width <= 0:
            raise ValueError(f"half_width must be > 0, got {self.half_width}")
        if self.n_space < 4 or self.n_space % 2:
            raise ValueError(f"n_space must be an even count >= 4, got {self.n_space}")
        if self.n_time < 1:
            raise ValueError(f"n_time must be >= 1, got {self.n_time}")
        if self.z_max is None:
            object.__setattr__(self, "z_max", self.half_width)
        if self.delta is None:
            object.__setattr__(self, "delta", self.dx)
        if not 0.0 < self.delta <= 10.0 * self.half_width / self.n_space:
            raise ValueError("delta must lie in (0, 5*dx]")
        if not self.delta <= self.z_max <= self.half_width:
            raise ValueError("need delta <= z_max <= half_width")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n_space

    def xs(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n_space + 1)

    def taus(self, expiry: float) -> np.ndarray:
        return np.linspace(0.0, expiry, self.n_time + 1)


def build_grid(spec: OptionSpec, grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (xs, taus, u0) with u0 the transformed payoff at the space nodes."""
    xs = grid.xs()
    taus = grid.taus(spec.expiry)
    u0 = payoff(spec, spec.strike * np.exp(xs))
    return xs, taus, u0


def european_asymptote(spec: OptionSpec) -> Callable[[np.ndarray, float], np.ndarray]:
    """Far-field values of the transformed European solution, used for Dirichlet
    data at x = +-L and for evaluating the jump integral beyond the grid."""
    K, r = spec.strike, spec.rate
    if spec.kind == "put":
        def fn(x: np.ndarray, tau: float) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            return np.where(x < 0, K - K * np.exp(x + r * tau), 0.0)
    else:
        def fn(x: np.ndarray, tau: float) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            return np.where(x > 0, K * np.exp(x + r * tau) - K, 0.0)
    return fn


# ---------------------------------------------------------------------------
# the discrete jump operator

# Kernels whose largest offset J is at least this take the FFT path.  Per
# apply on a 2-vCPU Xeon (N = 2J), correlate against FFT: J = 200 19 us vs
# 22 us; J = 220-280 within noise of each other; J = 300 41 us vs 25 us;
# J = 1600 2.3 ms vs 0.10 ms.
_FFT_MIN_OFFSET = 300


@dataclass(frozen=True)
class IntegralOperator:
    """Row-compressed (Toeplitz) discretization of the jump integral.

    Jump sizes are snapped to the x lattice: offsets j with delta_eff <=
    |j| dx <= z_max carry trapezoid weights w_j = c_j dx h(j dx).  Small
    jumps |z| < delta_eff contribute local_correction * (second difference)
    minus the same coefficient times the first difference; drift_correction
    multiplies the centered first difference and is calibrated from the same
    discrete weights so that applying the operator to samples of e^x gives
    exactly zero up to roundoff.
    """

    offsets: np.ndarray
    weights: np.ndarray
    total_weight: float
    local_correction: float
    drift_correction: float
    dx: float
    delta_eff: float
    # weights laid out densely by offset, index j + J for j = -J..J
    kernel: np.ndarray = field(repr=False)
    # rfft of the reversed kernel at length fft_len; None on the direct path
    kernel_rfft: np.ndarray | None = field(repr=False)
    fft_len: int

    def apply(
        self,
        u: np.ndarray,
        xs: np.ndarray,
        tau: float,
        extend: Callable[[np.ndarray, float], np.ndarray],
    ) -> np.ndarray:
        """Evaluate the operator on a node vector; boundary rows are zero
        (those nodes are governed by Dirichlet data, not the equation)."""
        out = np.zeros_like(u)
        dx = self.dx
        if self.offsets.size:
            J = self.kernel.size // 2
            left = extend(xs[0] + dx * np.arange(-J, 0), tau)
            right = extend(xs[-1] + dx * np.arange(1, J + 1), tau)
            upad = np.concatenate([left, u, right])
            if self.kernel_rfft is None:
                conv = np.correlate(upad, self.kernel, mode="valid")
            else:
                # a longer input would wrap around into the kept window
                if upad.size > self.fft_len:
                    raise ValueError(
                        f"apply got {u.size} nodes; the operator was assembled "
                        f"for at most {self.fft_len - 2 * J}"
                    )
                spectrum = np.fft.rfft(upad, self.fft_len) * self.kernel_rfft
                conv = np.fft.irfft(spectrum, self.fft_len)[2 * J : upad.size]
            out += conv - self.total_weight * u
        if self.local_correction != 0.0 or self.drift_correction != 0.0:
            d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2
            d1 = (u[2:] - u[:-2]) / (2.0 * dx)
            out[1:-1] += self.local_correction * d2 - self.drift_correction * d1
        out[0] = 0.0
        out[-1] = 0.0
        return out


def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a length the FFT handles quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _kernel_transform(kernel: np.ndarray, n_nodes: int) -> tuple[np.ndarray | None, int]:
    """(rfft of the reversed kernel, its length) for a kernel long enough to
    take the FFT path, else (None, 0).  The length holds the padded node
    vector, n_nodes + 2J, so the wrap-around of the circular convolution
    stays out of the window the apply keeps."""
    J = kernel.size // 2
    if J < _FFT_MIN_OFFSET:
        return None, 0
    n = _smooth_length(n_nodes + 2 * J)
    return np.fft.rfft(kernel[::-1], n), n


def assemble_integral_operator(model: LevyModel, grid: GridSpec) -> IntegralOperator:
    """Build the discrete jump operator for one measure on one grid."""
    dx = grid.dx
    if isinstance(model, NoJumps):
        empty = np.zeros(0)
        return IntegralOperator(
            offsets=np.zeros(0, dtype=int),
            weights=empty,
            total_weight=0.0,
            local_correction=0.0,
            drift_correction=0.0,
            dx=dx,
            delta_eff=0.0,
            kernel=empty,
            kernel_rfft=None,
            fft_len=0,
        )
    witness = shape_witness(model)
    if witness.alpha >= 3.0:
        raise ValueError(
            f"refusing assembly: singularity order alpha = {witness.alpha:g} >= 3 "
            "(the measure fails the defining integrability condition)"
        )

    j0 = max(1, int(round(grid.delta / dx)))
    J = max(j0, int(round(grid.z_max / dx)))
    side = np.arange(j0, J + 1)
    coeff = np.ones(side.size)
    coeff[0] = 0.5
    coeff[-1] = 0.5
    if side.size == 1:
        coeff[0] = 1.0  # degenerate single-node rule
    offsets = np.concatenate([-side[::-1], side])
    trap = np.concatenate([coeff[::-1], coeff]) * dx
    weights = trap * np.asarray(density(model, offsets * dx))

    delta_eff = j0 * dx
    local = 0.5 * truncated_second_moment(model, delta_eff)
    zs = offsets * dx
    k1 = math.sinh(dx) / dx
    k2 = 2.0 * (math.cosh(dx) - 1.0) / dx**2
    drift = (float(np.dot(weights, np.expm1(zs))) + local * k2) / k1
    kernel = np.zeros(2 * J + 1)
    kernel[offsets + J] = weights
    kernel_rfft, fft_len = _kernel_transform(kernel, grid.n_space + 1)
    return IntegralOperator(
        offsets=offsets,
        weights=weights,
        total_weight=float(weights.sum()),
        local_correction=local,
        drift_correction=drift,
        dx=dx,
        delta_eff=delta_eff,
        kernel=kernel,
        kernel_rfft=kernel_rfft,
        fft_len=fft_len,
    )


# ---------------------------------------------------------------------------
# IMEX stepping

@dataclass
class ImexOperators:
    """Assembled pieces shared by the time steps: grid arrays, the jump
    operator, the boundary-value callable, and the banded implicit matrix."""

    spec: OptionSpec
    grid: GridSpec
    xs: np.ndarray
    dt: float
    integral: IntegralOperator
    boundary: Callable[[np.ndarray, float], np.ndarray]
    band: np.ndarray = field(repr=False)


def _diffusion_band(spec: OptionSpec, grid: GridSpec, dt: float) -> np.ndarray:
    n_int = grid.n_space - 1
    c = dt * 0.5 * spec.sigma**2 / grid.dx**2
    band = np.zeros((3, n_int))
    band[0, 1:] = -c
    band[1, :] = 1.0 + 2.0 * c
    band[2, :-1] = -c
    return band


def assemble_operators(
    spec: OptionSpec,
    model: LevyModel,
    grid: GridSpec,
    boundary: Callable[[np.ndarray, float], np.ndarray] | None = None,
) -> ImexOperators:
    """Assemble everything step_imex needs; boundary defaults to the European
    far-field asymptote for spec's payoff kind."""
    if boundary is None:
        boundary = european_asymptote(spec)
    dt = spec.expiry / grid.n_time
    return ImexOperators(
        spec=spec,
        grid=grid,
        xs=grid.xs(),
        dt=dt,
        integral=assemble_integral_operator(model, grid),
        boundary=boundary,
        band=_diffusion_band(spec, grid, dt),
    )


def _implicit_solve(
    ops: ImexOperators, rhs: np.ndarray, extra_diag: np.ndarray | None = None
) -> np.ndarray:
    band = ops.band
    if extra_diag is not None:
        band = band.copy()
        band[1] += extra_diag
    return solve_banded((1, 1), band, rhs)


def _growth_guard(u_next: np.ndarray, u_prev: np.ndarray, ops: ImexOperators) -> None:
    dt = ops.dt
    scale = max(float(np.max(np.abs(u_prev))), ops.spec.strike)
    peak = float(np.max(np.abs(u_next)))
    envelope = (1.0 + 20.0 * dt) * scale
    if peak > envelope + 1e-9:
        raise RuntimeError(
            f"time step amplified the solution beyond the stability envelope: "
            f"max|u_next| = {peak:.6g} > (1 + 20 dt) scale = {envelope:.6g} "
            f"(dt = {dt:.4g}, dt*W = {dt * ops.integral.total_weight:.4g}); "
            "refine dt or loosen the jump truncation"
        )


def step_imex(
    u_prev: np.ndarray, ops: ImexOperators, tau_prev: float, solve: Callable | None = None
) -> np.ndarray:
    """Advance one time level: implicit diffusion, explicit drift and jumps.

    solve(rhs, u_next, u_prev), when given, replaces the banded solve and
    fills u_next[1:-1]; rhs has the new Dirichlet values folded into its edge
    equations, and u_next already holds them at its ends.
    """
    spec, dx, dt = ops.spec, ops.grid.dx, ops.dt
    jumps = ops.integral.apply(u_prev, ops.xs, tau_prev, ops.boundary)
    d1 = (u_prev[2:] - u_prev[:-2]) / (2.0 * dx)
    rhs = u_prev[1:-1] + dt * ((spec.rate - 0.5 * spec.sigma**2) * d1 + jumps[1:-1])
    u_next = np.empty_like(u_prev)
    u_next[0], u_next[-1] = ops.boundary(np.array([ops.xs[0], ops.xs[-1]]), tau_prev + dt)
    c = dt * 0.5 * spec.sigma**2 / dx**2
    rhs[0] += c * u_next[0]
    rhs[-1] += c * u_next[-1]
    if solve is None:
        u_next[1:-1] = _implicit_solve(ops, rhs)
    else:
        solve(rhs, u_next, u_prev)
    _growth_guard(u_next, u_prev, ops)
    return u_next


# ---------------------------------------------------------------------------
# the European solve and its surface

@dataclass(frozen=True)
class PriceSurface:
    """Transformed solution u on the (tau, x) grid, with back-transform metadata."""

    spec: OptionSpec
    taus: np.ndarray
    xs: np.ndarray
    u: np.ndarray

    def price_at(self, t: float, S):
        return price_at(self, t, S)

    def to_csv(self, path: str) -> None:
        surface_to_csv(self, path)


def _march(ops: ImexOperators, solve: Callable | None = None) -> PriceSurface:
    """Step from the payoff to tau = T.  solve(level, rhs, u_next, u_prev),
    when given, is each step's hook (see step_imex), level the index of the
    time level it fills."""
    xs, taus, u0 = build_grid(ops.spec, ops.grid)
    u = np.empty((ops.grid.n_time + 1, ops.grid.n_space + 1))
    u[0] = u0
    for n in range(ops.grid.n_time):
        level_solve = None if solve is None else partial(solve, n + 1)
        u[n + 1] = step_imex(u[n], ops, taus[n], level_solve)
    return PriceSurface(spec=ops.spec, taus=taus, xs=xs, u=u)


def solve_european(spec: OptionSpec, model: LevyModel, grid: GridSpec) -> PriceSurface:
    """March the transformed equation from the payoff to tau = T."""
    report = integrability_check(model)
    if not report.passed:
        raise ValueError(f"measure fails the integrability check: {report.detail}")
    return _march(assemble_operators(spec, model, grid))


def price_at(surface: PriceSurface, t: float, S):
    """Price V(t, S): nearest stored tau level, linear interpolation in x.

    Node queries reproduce stored values exactly.  S outside the grid range
    raises (no extrapolation).
    """
    spec = surface.spec
    tau = spec.expiry - t
    if tau < -1e-12 or tau > spec.expiry + 1e-12:
        raise ValueError(f"calendar time {t} outside [0, {spec.expiry}]")
    k = int(np.clip(round(tau / (surface.taus[1] - surface.taus[0])), 0, len(surface.taus) - 1))
    S_arr = np.asarray(S, dtype=float)
    if np.any(S_arr <= 0):
        raise ValueError("spot must be > 0")
    x = np.log(S_arr / spec.strike)
    lo, hi = surface.xs[0], surface.xs[-1]
    if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
        raise ValueError(
            f"spot outside the log-price grid [K e^{lo:+.3g}, K e^{hi:+.3g}]; "
            "refusing to extrapolate"
        )
    u_val = np.interp(x, surface.xs, surface.u[k])
    out = math.exp(-spec.rate * surface.taus[k]) * u_val
    return float(out) if np.ndim(S) == 0 else out


def surface_to_csv(surface: PriceSurface, path: str) -> None:
    """Write the surface as `tau,x,u` rows (tau outer), 9 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write("tau,x,u\n")
        for k, tau in enumerate(surface.taus):
            row = surface.u[k]
            for i, x in enumerate(surface.xs):
                fh.write(f"{tau:.9g},{x:.9g},{row[i]:.9g}\n")


def surface_from_csv(path: str, spec: OptionSpec) -> PriceSurface:
    """Rebuild a surface from its CSV serialization (spec is not stored in the file)."""
    taus: list[float] = []
    xs: list[float] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["tau", "x", "u"]:
            raise ValueError(f"unexpected surface header {header!r}")
        for tau_s, x_s, u_s in reader:
            tau, x = float(tau_s), float(x_s)
            if not taus or tau != taus[-1]:
                taus.append(tau)
            if len(taus) == 1:
                xs.append(x)
            values.append(float(u_s))
    n_x = len(xs)
    u = np.asarray(values, dtype=float).reshape(len(taus), n_x)
    return PriceSurface(spec=spec, taus=np.asarray(taus), xs=np.asarray(xs), u=u)
