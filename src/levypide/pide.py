"""IMEX finite-difference solver for the transformed jump-diffusion pricing equation.

In the frame tau = T - t, x = ln(S/K), u = e^(r tau) V, the European price
solves

    du/dtau = (sigma^2/2) u_xx + (r - sigma^2/2) u_x
              + integral of [u(x+z) - u(x) - (e^z - 1) u_x(x)] nu(dz),

with u(0, x) equal to the transformed payoff.  The diffusion block D is
implicit (one tridiagonal solve per step), the drift and the jump integral,
together E, are explicit.  The time step is the second-order IMEX-BDF2
(SBDF2) scheme,

    (3/2) u_(n+1) - dt D u_(n+1) = 2 u_n - u_(n-1)/2 + dt (2 E(u_n) - E(u_(n-1))),

which needs two levels.  The first level after the payoff comes from four
backward-Euler substeps of dt/4: backward Euler damps the payoff's kink, and
the four substeps' local error, O(dt^2 / 4), is of the second-order scheme's
size.  The tridiagonal solves call LAPACK
directly: assembly factors both matrices, (3/2) I - dt D for the SBDF2 steps
and I - (dt/4) D for the substeps, once (`dgttrf`) and each unhooked step
back-substitutes (`dgttrs`); a solve with an extra diagonal (the penalty
sweep) eliminates afresh (`dgtsv`).  Both run the elimination
`scipy.linalg.solve_banded` runs for a (1, 1) band, so the bits are the banded
solver's.  The discrete jump operator is calibrated so that it annihilates
samples of e^x exactly, the discrete counterpart of the identity that makes
the discounted stock a martingale.

`step_imex` is the one time step of both the European and the American
solve.  Its optional `solve` hook replaces the banded solve and fills the
new level's interior (the American solve passes its penalty sweep); every
step and substep, hooked or not, ends in the same growth guard, which also
refuses a NaN or an infinity: the LAPACK kernels do not check their input.

The far field, which supplies the Dirichlet data at x = +-L and the values
of u beyond the grid that the jump integral reaches, is a `FarField`:
u(x, tau) = level(x) + e^(r tau) growth(x), with r the spec's rate.  Assembly
evaluates level and growth once on the fixed nodes beyond the grid and at the
two edges, so a step evaluates no far field: it scales the precomputed growth
terms by e^(r tau) at its two time levels.

The large-jump part of the operator is a correlation of the node vector
with a kernel of 2J+1 lattice weights.  Every other part of E is a
three-point stencil on the interior rows (-W u, the small-jump corrections
and the market drift), so assembly folds them into the kernel's taps -1, 0
and +1 and a step evaluates E with that one precomputed kernel: one
correlation and no stencil arithmetic.  Kernels with J below _FFT_MIN_OFFSET
use the direct O(N J) `np.correlate` on the node vector padded with the 2J
far-field values, one dot product per row.  Longer ones correlate the N+1
grid nodes alone through a real FFT of length N+1+J (rounded up to a
2^a 3^b 5^c length), with the kernel's transform computed once at assembly,
and add the far-field values' share of every row, which is linear in them
and is also precomputed per operator.  The two paths agree to roundoff
(relative difference below 1e-15); the cut-over is where their per-apply
timings cross.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from .bs import OptionSpec, payoff
from .levy import (
    LevyModel,
    NoJumps,
    integrability_check,
    truncated_second_moment,
    density,
)

__all__ = [
    "GridSpec",
    "PriceSurface",
    "Correlation",
    "IntegralOperator",
    "ImexOperators",
    "StepHistory",
    "build_grid",
    "FarField",
    "european_asymptote",
    "assemble_integral_operator",
    "assemble_operators",
    "step_imex",
    "solve_european",
    "price_at",
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
    """Far-field values u(x, tau) = level(x) + e^(r tau) growth(x) of the
    transformed solution, r the spec's rate: the Dirichlet data at x = +-L and
    the values beyond the grid that the jump integral reaches.

    level and growth depend on x alone, so assembly evaluates them once on the
    fixed nodes and a step needs only the factor e^(r tau).
    """

    level: Callable[[np.ndarray], np.ndarray]
    growth: Callable[[np.ndarray], np.ndarray]


def european_asymptote(spec: OptionSpec) -> FarField:
    """Far-field values of the transformed European solution: K - e^(r tau) K e^x
    for x < 0 and 0 beyond for a put, the mirror image for a call."""
    K = spec.strike
    if spec.kind == "put":
        side, sign = np.less, 1.0
    else:
        side, sign = np.greater, -1.0
    return FarField(
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
class Correlation:
    """Correlation of a node vector with a Toeplitz kernel of 2J+1 taps.

    Row i of the result, i = 0..n_nodes-1, is the sum over k of
    kernel[k] u[i + k - J], where u beyond the grid takes far-field values.
    Kernels with J below _FFT_MIN_OFFSET take the direct path, one
    `np.correlate` of the node vector padded with the J far-field values on
    each side.  Longer ones correlate the grid nodes alone through a real FFT
    of length fft_len and add the far-field values' share of every row.
    """

    kernel: np.ndarray = field(repr=False)
    # rfft of the reversed kernel at length fft_len; None on the direct path
    kernel_rfft: np.ndarray | None = field(repr=False)
    fft_len: int
    n_nodes: int

    @classmethod
    def of(cls, kernel: np.ndarray, n_nodes: int) -> Correlation:
        """The correlation with kernel over n_nodes grid nodes.  On the FFT
        path the full linear convolution of the grid nodes has n_nodes + 2J
        terms and the correlation keeps those from J to J + n_nodes - 1; a
        transform length of n_nodes + J keeps the wrap-around of the circular
        convolution out of that window."""
        J = kernel.size // 2
        if J < _FFT_MIN_OFFSET:
            return cls(kernel, None, 0, n_nodes)
        n = _smooth_length(n_nodes + J)
        return cls(kernel, np.fft.rfft(kernel[::-1], n), n, n_nodes)

    def far_data(self, ext: np.ndarray) -> np.ndarray:
        """What the correlation takes from u's values at the J lattice points
        left of the grid, then the J right of it; linear in them.

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

    def __call__(self, u: np.ndarray, far: np.ndarray) -> np.ndarray:
        """The correlation of u, with far = far_data(u's values beyond the grid)."""
        J = self.kernel.size // 2
        if self.kernel_rfft is None:
            return np.correlate(np.concatenate([far[:J], u, far[J:]]), self.kernel, mode="valid")
        spectrum = np.fft.rfft(u, self.fft_len) * self.kernel_rfft
        return np.fft.irfft(spectrum, self.fft_len)[J : J + u.size] + far


@dataclass(frozen=True)
class IntegralOperator:
    """Row-compressed (Toeplitz) discretization of the jump integral.

    Jump sizes are snapped to the x lattice: offsets j with delta_eff <=
    |j| dx <= z_max carry trapezoid weights w_j = c_j dx h(j dx), delta_eff
    being grid.delta snapped to a positive multiple of dx.  Small jumps
    |z| < delta_eff contribute local_correction * (second difference) minus
    the same coefficient times the first difference; drift_correction
    multiplies the centered first difference and is calibrated from the same
    discrete weights so that applying the operator to samples of e^x gives
    exactly zero up to roundoff.  A step evaluates the operator only through
    the explicit kernel (`_explicit_kernel`) these fields fold into.
    """

    offsets: np.ndarray
    weights: np.ndarray
    total_weight: float
    local_correction: float
    drift_correction: float
    dx: float


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


def assemble_integral_operator(model: LevyModel, grid: GridSpec) -> IntegralOperator:
    """Build the discrete jump operator for one measure on one grid; a measure
    that fails the integrability check is refused here, for every solve."""
    dx = grid.dx
    if isinstance(model, NoJumps):
        return IntegralOperator(
            offsets=np.zeros(0, dtype=int),
            weights=np.zeros(0),
            total_weight=0.0,
            local_correction=0.0,
            drift_correction=0.0,
            dx=dx,
        )
    report = integrability_check(model)
    if not report.passed:
        raise ValueError(f"measure fails the integrability check: {report.detail}")

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
    return IntegralOperator(
        offsets=offsets,
        weights=weights,
        total_weight=float(weights.sum()),
        local_correction=local,
        drift_correction=drift,
        dx=dx,
    )


def _ext_nodes(grid: GridSpec, J: int) -> np.ndarray:
    """The J lattice points left of the grid, then the J right of it."""
    xs, dx = grid.xs(), grid.dx
    return np.concatenate([xs[0] + dx * np.arange(-J, 0), xs[-1] + dx * np.arange(1, J + 1)])


def _explicit_kernel(spec: OptionSpec, integral: IntegralOperator) -> np.ndarray:
    """The taps of the explicit operator E, the drift plus the jump term, on
    the interior rows: the jump weights, with E's three-point terms folded
    into offsets -1, 0 and +1.  Those terms are -W u, local_correction times
    the second difference, and (r - sigma^2/2 - drift_correction) times the
    centered first difference.  The half-width is max(J, 1)."""
    J = max(int(integral.offsets.max(initial=0)), 1)
    dx = integral.dx
    local = integral.local_correction / dx**2
    slope = (spec.rate - 0.5 * spec.sigma**2 - integral.drift_correction) / (2.0 * dx)
    kernel = np.zeros(2 * J + 1)
    kernel[integral.offsets + J] = integral.weights
    kernel[J] -= integral.total_weight + 2.0 * local
    kernel[J - 1] += local - slope
    kernel[J + 1] += local + slope
    return kernel


# ---------------------------------------------------------------------------
# IMEX stepping

# Level 1 comes from this many backward-Euler substeps of dt / _START_SUBSTEPS.
_START_SUBSTEPS = 4


@dataclass
class ImexOperators:
    """Assembled pieces shared by the time steps: grid arrays, the jump
    operator, the explicit operator E as one correlation with the far field's
    precomputed shares, and one step's banded implicit matrix with its LU
    factors.

    assemble_operators returns the SBDF2 step's operators: dt is the time
    step and band is (3/2) I - dt D.  Their `start` holds the same pieces with
    the start substep's dt / 4 and band I - (dt / 4) D, and no start of its own.
    """

    spec: OptionSpec
    grid: GridSpec
    xs: np.ndarray
    dt: float
    integral: IntegralOperator
    # E on every node (its boundary rows unused)
    explicit: Correlation
    # explicit.far_data of the far field's level and growth beyond the grid
    far_level: np.ndarray = field(repr=False)
    far_growth: np.ndarray = field(repr=False)
    # level and growth at the two Dirichlet nodes xs[0], xs[-1]
    edge_level: tuple[float, float]
    edge_growth: tuple[float, float]
    # rows: super-diagonal, diagonal, sub-diagonal
    band: np.ndarray = field(repr=False)
    # dgttrf's (dl, d, du, du2, ipiv) of band
    band_lu: tuple = field(repr=False)
    start: ImexOperators | None = field(default=None, repr=False)

    def edge_values(self, tau: float) -> tuple[float, float]:
        """The Dirichlet values at xs[0] and xs[-1] at tau."""
        grow = math.exp(self.spec.rate * tau)
        return (
            self.edge_level[0] + grow * self.edge_growth[0],
            self.edge_level[1] + grow * self.edge_growth[1],
        )


def _factored_band(
    spec: OptionSpec, grid: GridSpec, dt: float, lead: float
) -> tuple[np.ndarray, tuple]:
    """lead I - dt D on the interior nodes, D = (sigma^2/2) d_xx, and its
    dgttrf factors."""
    n_int = grid.n_space - 1
    c = dt * 0.5 * spec.sigma**2 / grid.dx**2
    band = np.zeros((3, n_int))
    band[0, 1:] = -c
    band[1, :] = lead + 2.0 * c
    band[2, :-1] = -c
    *band_lu, info = dgttrf(band[2, :-1], band[1], band[0, 1:])
    _check_info(info)
    return band, tuple(band_lu)


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
    kernel = _explicit_kernel(spec, integral)
    explicit = Correlation.of(kernel, grid.n_space + 1)
    ext_nodes = _ext_nodes(grid, kernel.size // 2)
    edge_xs = np.array([xs[0], xs[-1]])
    band, band_lu = _factored_band(spec, grid, dt, 1.5)
    ops = ImexOperators(
        spec=spec,
        grid=grid,
        xs=xs,
        dt=dt,
        integral=integral,
        explicit=explicit,
        far_level=explicit.far_data(boundary.level(ext_nodes)),
        far_growth=explicit.far_data(boundary.growth(ext_nodes)),
        edge_level=tuple(boundary.level(edge_xs).tolist()),
        edge_growth=tuple(boundary.growth(edge_xs).tolist()),
        band=band,
        band_lu=band_lu,
    )
    sub = dt / _START_SUBSTEPS
    sub_band, sub_lu = _factored_band(spec, grid, sub, 1.0)
    ops.start = replace(ops, dt=sub, band=sub_band, band_lu=sub_lu)
    return ops


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


def _growth_guard(u_next: np.ndarray, prev_peak: float, ops: ImexOperators) -> float:
    """Refuse u_next if it outgrew the previous level, whose max|u| is
    prev_peak; return max|u_next|, the next guard's prev_peak."""
    dt = ops.dt
    scale = max(prev_peak, ops.spec.strike)
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
    return peak


def _explicit_term(u: np.ndarray, ops: ImexOperators, tau: float) -> np.ndarray:
    """E(u) at tau on the interior nodes, the drift plus the jump term: one
    correlation, with the far field supplying u beyond the grid."""
    far = ops.far_level + math.exp(ops.spec.rate * tau) * ops.far_growth
    return ops.explicit(u, far)[1:-1]


def _implicit_step(
    ops: ImexOperators,
    rhs: np.ndarray,
    u_prev: np.ndarray,
    tau_prev: float,
    prev_peak: float,
    solve: Callable | None,
) -> tuple[np.ndarray, float]:
    """Fold the new Dirichlet values into rhs, solve with ops' matrix (or the
    hook) and guard; return the new level and its max|u|."""
    dt = ops.dt
    tau = tau_prev + dt
    u_next = np.empty_like(u_prev)
    u_next[0], u_next[-1] = ops.edge_values(tau)
    c = dt * 0.5 * ops.spec.sigma**2 / ops.grid.dx**2
    rhs[0] += c * u_next[0]
    rhs[-1] += c * u_next[-1]
    if solve is None:
        u_next[1:-1] = _implicit_solve(ops, rhs)
    else:
        solve(ops, tau, rhs, u_next, u_prev)
    return u_next, _growth_guard(u_next, prev_peak, ops)


class StepHistory(NamedTuple):
    """What an SBDF2 step from u_n takes besides u_n: u_(n-1), its
    b_(n-1) = u_(n-1)[1:-1] + dt E(u_(n-1)), and max|u_n|."""

    u_before: np.ndarray
    b_before: np.ndarray
    peak: float


def step_imex(
    u_prev: np.ndarray,
    ops: ImexOperators,
    tau_prev: float,
    history: StepHistory | None = None,
    solve: Callable | None = None,
) -> tuple[np.ndarray, StepHistory]:
    """Advance one time level, from tau_prev to tau_prev + ops.dt; return the
    new level and the history its own step takes.

    With the history of the step that made u_prev, this is the SBDF2 step.
    Its interior right-hand side is 2 b_n - b_(n-1) + u_(n-1)[1:-1] / 2, where
    b_n = u_n[1:-1] + dt E(u_n) is backward Euler's.  Without history, it is
    the start: _START_SUBSTEPS backward-Euler substeps with ops.start.  The
    first substep's jump apply also gives b_0, at the full dt.

    solve(step_ops, tau, rhs, u_next, u_prev), when given, replaces the banded
    solve of each step and substep and fills u_next[1:-1]: step_ops are the
    operators of that (sub)step (ops or ops.start), tau is the time of the
    level it fills, rhs has the new Dirichlet values folded into its edge
    equations, and u_next already holds them at its ends.
    """
    explicit = _explicit_term(u_prev, ops, tau_prev)
    b = u_prev[1:-1] + ops.dt * explicit
    if history is not None:
        rhs = 2.0 * b - history.b_before + 0.5 * history.u_before[1:-1]
        u_next, peak = _implicit_step(ops, rhs, u_prev, tau_prev, history.peak, solve)
        return u_next, StepHistory(u_prev, b, peak)
    start = ops.start
    u_next, peak = u_prev, float(np.max(np.abs(u_prev)))
    for k in range(_START_SUBSTEPS):
        tau = tau_prev + k * start.dt
        if k:
            explicit = _explicit_term(u_next, start, tau)
        rhs = u_next[1:-1] + start.dt * explicit
        u_next, peak = _implicit_step(start, rhs, u_next, tau, peak, solve)
    return u_next, StepHistory(u_prev, b, peak)


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
        """Write the surface as `tau,x,u` rows (tau outer), 9 significant digits."""
        with open(path, "w", newline="") as fh:
            fh.write("tau,x,u\n")
            for k, tau in enumerate(self.taus):
                row = self.u[k]
                for i, x in enumerate(self.xs):
                    fh.write(f"{tau:.9g},{x:.9g},{row[i]:.9g}\n")


def _march(ops: ImexOperators, solve: Callable | None = None) -> PriceSurface:
    """Step from the payoff to tau = T; solve, when given, is each step's hook
    (see step_imex)."""
    xs, taus, u0 = build_grid(ops.spec, ops.grid)
    u = np.empty((ops.grid.n_time + 1, ops.grid.n_space + 1))
    u[0] = u0
    history = None
    for n in range(ops.grid.n_time):
        u[n + 1], history = step_imex(u[n], ops, taus[n], history, solve)
    return PriceSurface(spec=ops.spec, taus=taus, xs=xs, u=u)


def solve_european(spec: OptionSpec, model: LevyModel, grid: GridSpec) -> PriceSurface:
    """March the transformed equation from the payoff to tau = T."""
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
