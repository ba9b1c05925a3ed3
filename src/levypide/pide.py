"""IMEX finite-difference solver for the transformed jump-diffusion pricing equation.

In the frame tau = T - t, x = ln(S/K), u = e^(r tau) V, the European price
solves

    du/dtau = (sigma^2/2) u_xx + (r - sigma^2/2) u_x
              + integral of [u(x+z) - u(x) - (e^z - 1) u_x(x)] nu(dz),

with u(0, x) equal to the transformed payoff.  The diffusion block is
implicit (one tridiagonal solve per step), the drift and the jump integral
are explicit.  The tridiagonal solves call LAPACK directly: assembly factors
the matrix once (`dgttrf`) and each unhooked step back-substitutes (`dgttrs`);
a solve with an extra diagonal (the penalty sweep) eliminates afresh
(`dgtsv`).  Both run the elimination `scipy.linalg.solve_banded` runs for a
(1, 1) band, so the bits are the banded solver's.  The discrete jump operator
is calibrated so that it annihilates samples of e^x exactly, the discrete
counterpart of the identity that makes the discounted stock a martingale.

`step_imex` is the one time step of both the European and the American
solve.  Its optional `solve` hook replaces the banded solve and fills the
new level's interior (the American solve passes its penalty sweep); every
step, hooked or not, ends in the same growth guard, which also refuses a NaN
or an infinity: the LAPACK kernels do not check their input.

The far field, which supplies the Dirichlet data at x = +-L and the values
of u beyond the grid that the jump integral reaches, is a `FarField`:
u(x, tau) = level(x) + e^(rate tau) growth(x).  Assembly evaluates level and
growth once on the fixed nodes beyond the grid and at the two edges, so a
step evaluates no far field: it scales the precomputed growth terms by
e^(rate tau) at its two time levels.

The large-jump part of the operator is a correlation of the node vector
with a kernel of 2J+1 lattice weights.  Kernels with J below _FFT_MIN_OFFSET
use the direct O(N J) `np.correlate` on the node vector padded with the 2J
far-field values, one dot product per row.  Longer ones correlate the N+1 grid nodes alone through a
real FFT of length N+1+J (rounded up to a 2^a 3^b 5^c length), with the
kernel's transform computed once at assembly, and add the far-field values'
share of every row, which is linear in them and is also precomputed per
operator.  The two paths agree to roundoff (relative difference below
1e-15); the cut-over is where their per-apply timings cross.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

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
    "FarField",
    "european_asymptote",
    "assemble_integral_operator",
    "assemble_operators",
    "step_imex",
    "solve_european",
    "price_at",
    "surface_to_csv",
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
        if not 0 < self.half_width < math.inf:
            raise ValueError(f"half_width must be finite and > 0, got {self.half_width}")
        if self.n_space < 4 or self.n_space % 2:
            raise ValueError(f"n_space must be an even count >= 4, got {self.n_space}")
        if not 1 <= self.n_time < math.inf:
            raise ValueError(f"n_time must be a finite count >= 1, got {self.n_time}")
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


@dataclass(frozen=True)
class FarField:
    """Far-field values u(x, tau) = level(x) + e^(rate tau) growth(x) of the
    transformed solution: the Dirichlet data at x = +-L and the values beyond
    the grid that the jump integral reaches.

    level and growth depend on x alone, so assembly evaluates them once on the
    fixed nodes and a step needs only the factor e^(rate tau).
    """

    rate: float
    level: Callable[[np.ndarray], np.ndarray]
    growth: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x, tau: float) -> np.ndarray:
        return self.level(x) + math.exp(self.rate * tau) * self.growth(x)


def european_asymptote(spec: OptionSpec) -> FarField:
    """Far-field values of the transformed European solution: K - e^(r tau) K e^x
    for x < 0 and 0 beyond for a put, the mirror image for a call."""
    K = spec.strike
    if spec.kind == "put":
        side, sign = np.less, 1.0
    else:
        side, sign = np.greater, -1.0
    return FarField(
        rate=spec.rate,
        level=lambda x: np.where(side(x, 0.0), sign * K, 0.0),
        growth=lambda x: np.where(side(x, 0.0), -sign * K * np.exp(x), 0.0),
    )


# ---------------------------------------------------------------------------
# the discrete jump operator

# Kernels whose largest offset J is at least this take the FFT path.  One
# jump evaluation on a 2-vCPU Xeon (N = 2J, best of 9 x 200, two runs), direct
# against FFT: J = 200 35-52 us vs 54-59 us; J = 250 53-68 us vs 49-60 us;
# J = 300 87-89 us vs 63-64 us; J = 1600 2.1-2.6 ms vs 0.17 ms.  The crossing
# lies between J = 200 and 300 and moves with the host's load.
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
    # the J lattice points left of the grid, then the J right of it
    ext_nodes: np.ndarray = field(repr=False)
    n_nodes: int

    def apply(
        self,
        u: np.ndarray,
        xs: np.ndarray,
        tau: float,
        extend: Callable[[np.ndarray, float], np.ndarray],
    ) -> np.ndarray:
        """Evaluate the operator on a node vector; boundary rows are zero
        (those nodes are governed by Dirichlet data, not the equation).

        xs are the nodes of the grid the operator was assembled on; the
        lattice points beyond them, where extend supplies u, are precomputed,
        so a vector of any other length is refused.
        """
        if u.size != self.n_nodes:
            raise ValueError(
                f"apply got {u.size} nodes; the operator was assembled for {self.n_nodes}"
            )
        return self.evaluate(u, self.far_data(extend(self.ext_nodes, tau)))

    def far_data(self, ext: np.ndarray) -> np.ndarray:
        """What evaluate takes from u's values at ext_nodes; linear in them.

        The direct path correlates the padded node vector, so it takes the
        values themselves.  The FFT path correlates the grid nodes alone and
        takes the values' share of every row: row i reaches the J points left
        of the grid through the offsets below -i, and the J points right of it
        through those above N - i.
        """
        if self.kernel_rfft is None:
            return ext
        J = self.kernel.size // 2
        out = np.zeros(self.n_nodes)
        out[:J] += np.correlate(ext[:J], self.kernel[:J], mode="full")[J - 1 :]
        out[-J:] += np.correlate(ext[J:], self.kernel[J + 1 :], mode="full")[:J]
        return out

    def evaluate(self, u: np.ndarray, far: np.ndarray) -> np.ndarray:
        """The operator on u, with far = far_data(u's values at ext_nodes);
        boundary rows zero."""
        out = np.zeros_like(u)
        dx = self.dx
        if self.offsets.size:
            J = self.kernel.size // 2
            if self.kernel_rfft is None:
                upad = np.concatenate([far[:J], u, far[J:]])
                conv = np.correlate(upad, self.kernel, mode="valid")
            else:
                spectrum = np.fft.rfft(u, self.fft_len) * self.kernel_rfft
                conv = np.fft.irfft(spectrum, self.fft_len)[J : J + u.size] + far
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
    take the FFT path, else (None, 0).  The correlation runs over the grid
    nodes alone, so the full linear convolution has n_nodes + 2J terms and
    the grid term keeps those from J to J + n_nodes - 1; a length of
    n_nodes + J keeps the wrap-around of the circular convolution out of
    that window."""
    J = kernel.size // 2
    if J < _FFT_MIN_OFFSET:
        return None, 0
    n = _smooth_length(n_nodes + J)
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
            ext_nodes=empty,
            n_nodes=grid.n_space + 1,
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
    xs = grid.xs()
    ext_nodes = np.concatenate(
        [xs[0] + dx * np.arange(-J, 0), xs[-1] + dx * np.arange(1, J + 1)]
    )
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
        ext_nodes=ext_nodes,
        n_nodes=grid.n_space + 1,
    )


# ---------------------------------------------------------------------------
# IMEX stepping

@dataclass
class ImexOperators:
    """Assembled pieces shared by the time steps: grid arrays, the jump
    operator, the far field with its precomputed terms, and the banded
    implicit matrix with its LU factors."""

    spec: OptionSpec
    grid: GridSpec
    xs: np.ndarray
    dt: float
    integral: IntegralOperator
    boundary: FarField
    # integral.far_data of the far field's level and growth beyond the grid
    far_level: np.ndarray = field(repr=False)
    far_growth: np.ndarray = field(repr=False)
    # level and growth at the two Dirichlet nodes xs[0], xs[-1]
    edge_level: tuple[float, float]
    edge_growth: tuple[float, float]
    # rows: super-diagonal, diagonal, sub-diagonal
    band: np.ndarray = field(repr=False)
    # dgttrf's (dl, d, du, du2, ipiv) of band
    band_lu: tuple = field(repr=False)

    def jump_term(self, u: np.ndarray, tau: float) -> np.ndarray:
        """The jump operator on u at tau, with the far field supplying u beyond
        the grid: the step's explicit jump term."""
        far = self.far_level + math.exp(self.boundary.rate * tau) * self.far_growth
        return self.integral.evaluate(u, far)

    def edge_values(self, tau: float) -> tuple[float, float]:
        """The Dirichlet values at xs[0] and xs[-1] at tau."""
        grow = math.exp(self.boundary.rate * tau)
        return (
            self.edge_level[0] + grow * self.edge_growth[0],
            self.edge_level[1] + grow * self.edge_growth[1],
        )


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
    boundary: FarField | None = None,
) -> ImexOperators:
    """Assemble everything step_imex needs; boundary defaults to the European
    far-field asymptote for spec's payoff kind."""
    if boundary is None:
        boundary = european_asymptote(spec)
    dt = spec.expiry / grid.n_time
    xs = grid.xs()
    integral = assemble_integral_operator(model, grid)
    edge_xs = np.array([xs[0], xs[-1]])
    band = _diffusion_band(spec, grid, dt)
    *band_lu, info = dgttrf(band[2, :-1], band[1], band[0, 1:])
    _check_info(info)
    return ImexOperators(
        spec=spec,
        grid=grid,
        xs=xs,
        dt=dt,
        integral=integral,
        boundary=boundary,
        far_level=integral.far_data(boundary.level(integral.ext_nodes)),
        far_growth=integral.far_data(boundary.growth(integral.ext_nodes)),
        edge_level=tuple(boundary.level(edge_xs).tolist()),
        edge_growth=tuple(boundary.growth(edge_xs).tolist()),
        band=band,
        band_lu=tuple(band_lu),
    )


def _check_info(info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError("singular matrix")


def _implicit_solve(
    ops: ImexOperators, rhs: np.ndarray, extra_diag: np.ndarray | None = None
) -> np.ndarray:
    """Solve the implicit system for the interior nodes: through the factors
    made at assembly, or, with extra_diag added to the diagonal, by one fresh
    elimination."""
    if extra_diag is None:
        x, info = dgttrs(*ops.band_lu, rhs)
    else:
        band = ops.band
        *_, x, info = dgtsv(band[2, :-1], band[1] + extra_diag, band[0, 1:], rhs)
    _check_info(info)
    return x


def _growth_guard(u_next: np.ndarray, u_prev: np.ndarray, ops: ImexOperators) -> None:
    dt = ops.dt
    scale = max(float(np.max(np.abs(u_prev))), ops.spec.strike)
    peak = float(np.max(np.abs(u_next)))
    envelope = (1.0 + 20.0 * dt) * scale
    # a NaN compares False with anything and an inf scale lets an inf peak
    # pass, so non-finite values are refused explicitly
    if not (math.isfinite(peak) and peak <= envelope + 1e-9):
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
    jumps = ops.jump_term(u_prev, tau_prev)
    d1 = (u_prev[2:] - u_prev[:-2]) / (2.0 * dx)
    rhs = u_prev[1:-1] + dt * ((spec.rate - 0.5 * spec.sigma**2) * d1 + jumps[1:-1])
    u_next = np.empty_like(u_prev)
    u_next[0], u_next[-1] = ops.edge_values(tau_prev + dt)
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
