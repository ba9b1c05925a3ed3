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
and I - (dt/4) D for the substeps, once (`dgttrf`) and each step without a
sweep back-substitutes (`dgttrs`); a solve with an extra diagonal (a penalty
sweep with an active node) eliminates afresh (`dgtsv`), while a penalty-free
sweep back-substitutes like a step without one.  Both run the elimination
`scipy.linalg.solve_banded` runs for a (1, 1) band, so the bits are the banded
solver's.  The discrete jump operator is calibrated so that it annihilates
samples of e^x exactly, the discrete counterpart of the identity that makes
the discounted stock a martingale.

`step_imex` is the one time step of both the European and the American
solve, and `_march` its one march.  The operators decide the solve:
operators with a `Penalty` (an American job's, which
`american.penalized_operators` builds) run the penalty sweep
(`_penalty_sweep`) in place of the banded solve, and a European job's have
none.  An SBDF2 step's sweep solves

    ((3/2) I - dt D + P) u_(n+1) = rhs + P w,

with w = e^(r tau) w_0 the transformed payoff at the new level's tau and
P = (dt/eps) e^(x^-) on the active nodes (u < w), 0 elsewhere; a start
substep's solves the same system with I - (dt/4) D and dt/4 in P.  The
sweep is a fixed-point iteration: the active set lags one iterate while the
penalty's value is taken implicitly as an extra diagonal, which keeps every
inner solve tridiagonal and converges in a few sweeps even for eps much
smaller than dt.  After each sweep's solve the stopping rule asks, in this
order: if another sweep is allowed, does the new iterate have the active
set the sweep just used?  Then the next sweep would repeat that solve bit
for bit and stop on a zero update, so the sweep stops without changing a
bit of the result, and without computing the update norm.  Otherwise it
stops when the update |u_next - u_iter|_inf falls below the penalty's tol;
on the last allowed sweep it raises PicardError with that update.  Every
step and substep, with a sweep or without, ends in the same growth guard,
which also refuses a NaN or an infinity: the LAPACK kernels do not check
their input.  The guard's and the sweep's failures quote the step's three
stiffness numbers (`_stiffness`).

The march advances a lockstep batch (`Lockstep`): the levels of k jobs whose
operators share one key (`Lockstep.key`: the grid, time step, strike, jump
reach, the factored bands themselves and the penalty) are the rows of one
(k, N+1) array.  The key is the one batch rule: a caller groups jobs by it
and `Lockstep.of` refuses rows that break it.  A penalty is one job's own,
so a row with one marches alone, and `Lockstep.of` refuses it.  A step applies the
k jump kernels in one `scipy.fft` `rfft`/`irfft` pair, each a single pass
over the batch's rows along the last axis (the direct path correlates row by
row), and back-substitutes the k right-hand sides in one `dgttrs` call; the
far field, the Dirichlet values and the growth guard stay per row, so each
row is its own solve bit for bit.
A single solve steps a plain (N+1,) vector with its own operators through
the same code, not a `Lockstep.of([ops])`: in an interleaved in-process A/B
at 400x200 on a 2-vCPU host (this tree against a copy that stepped every
solve as a batch of one, calls alternating; a copy against itself reads
0.996-1.000), the batch of one took 1.22x the time per American solve and
1.29x per European one, bits identical, and one SBDF2 step 76.5 us against
54.9 us: the edge values, the growth guard and the direct path's row loop
are slower on (1, N+1) arrays.  A batch of k rows makes the same number of
calls per step as one row, for k times the work.  An LDL^T solve
(`dpttrf`/`dpttrs`) is about twice as fast as `dgttrs` in one process (52-53
us against 100-112 us for two right-hand sides of 3199 unknowns, same host),
but it needs a symmetric band, and the planned move of the compensator drift
into the band, for stiff kernels, makes it nonsymmetric; so it is not used.

A step builds its right-hand side in place on the arrays it makes: b, the
SBDF2 right-hand side, the far-field values and the correlation's output are
each one fresh array that the next operations update, in the order of the
formulas; only the two operands of a sum or a product swap places, which
changes no bit in IEEE arithmetic.  So a step allocates fewer temporaries
and keeps its bits.  No step writes into an array its caller passed.

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
correlation and no stencil arithmetic.  The correlation has one far-field
rule, whatever the reach J: it correlates the N+1 grid nodes alone and adds
the far-field values' share of every row, which is linear in them and so is
precomputed per operator at assembly (`Correlation.far_data`).  Kernels with
J below _FFT_MIN_OFFSET and no longer than the node vector use the direct
O(N J) `np.correlate(u, kernel, mode="same")`.  The others go through a real
FFT of length N+1+J (rounded up to a 2^a 3^b 5^c length by
`scipy.fft.next_fast_len`), with the kernel's transform computed once at
assembly; every transform is `scipy.fft`'s.  The two paths agree to roundoff
(relative difference below 1e-15); the cut-over is where their per-apply
timings cross.

A solve's `PriceSurface` carries the operators that made it, so its spec,
grid, far field and jump measure cannot disagree with its levels; a check of
the surface (`american.lcp_residual`) reads them from it.  It holds every
time level by default, (M+1)(N+1) doubles.  A caller that reads only t = 0
passes keep_levels=False: the march then holds just the levels a step takes,
and the surface holds the payoff and the last level at taus (0, T), whose
t = 0 prices are the full surface's bit for bit; `price_at` refuses any other
t on such a surface.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from .bs import OptionSpec, payoff
from .levy import LevyModel, NoJumps, density, shape_witness, truncated_second_moment

__all__ = [
    "GridSpec",
    "PriceSurface",
    "Correlation",
    "IntegralOperator",
    "ImexOperators",
    "Lockstep",
    "Penalty",
    "PicardError",
    "StepHistory",
    "build_grid",
    "FarField",
    "GrowthGuardError",
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
        _check_count("n_space", self.n_space)
        _check_count("n_time", self.n_time)
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
            raise ValueError(
                f"delta must lie in (0, 5*dx], got delta = {self.delta:.9g}, dx = {self.dx:.9g}"
            )
        if not self.delta <= self.z_max <= self.half_width:
            raise ValueError(
                f"need delta <= z_max <= half_width, got delta = {self.delta:.9g}, "
                f"z_max = {self.z_max:.9g}, half_width = {self.half_width:.9g}"
            )

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n_space

    def xs(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n_space + 1)

    def taus(self, expiry: float) -> np.ndarray:
        return np.linspace(0.0, expiry, self.n_time + 1)


def _check_count(name: str, value) -> None:
    """Refuse a count that is not an integer, 50.0 included: the solve would
    meet it in range() or np.empty and fail there with a bare TypeError."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
# apply with its far-field share on a 2-vCPU Xeon (numpy 2.4, scipy 1.17;
# N = 2J, best of 9 x 200 calls, the two paths interleaved, two runs), direct
# against FFT: J = 200 14.3-16.6 us vs 23.5-25.4 us; J = 250 22.8-23.6 us vs
# 24.2-26.9 us; J = 300 28.1-34.4 us vs 25.2-27.9 us; J = 1600 0.93-1.08 ms vs
# 84-91 us.  The crossing lies between J = 250 and 300 and moves with the
# host's load.
_FFT_MIN_OFFSET = 300


@dataclass(frozen=True)
class Correlation:
    """Correlation of a node vector with a Toeplitz kernel of 2J+1 taps.

    Row i of the result, i = 0..n_nodes-1, is the sum over k of
    kernel[k] u[i + k - J], where u beyond the grid takes far-field values.
    Both paths correlate the grid nodes alone and add the far-field values'
    share of every row (far_data).  Kernels with J below _FFT_MIN_OFFSET and
    no longer than the node vector take the direct path, one
    `np.correlate(u, kernel, mode="same")` per row; the others a real FFT of
    length fft_len.

    A lockstep batch's correlation stacks its rows' kernels (and their
    transforms) along a leading axis and correlates row r of a (k, n_nodes)
    array with kernel r.
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
        # mode="same" returns the longer input's length, so a kernel longer
        # than the node vector takes the FFT path
        if J < _FFT_MIN_OFFSET and kernel.size <= n_nodes:
            return cls(kernel, None, 0, n_nodes)
        n = next_fast_len(n_nodes + J, real=True)
        return cls(kernel, rfft(kernel[::-1], n), n, n_nodes)

    def far_data(self, ext: np.ndarray) -> np.ndarray:
        """The share of every row that comes from u's values at the J lattice
        points left of the grid, then the J right of it; linear in them.  Row
        i reaches the J points left of the grid through the offsets below -i,
        and the J points right of it through those above N - i; with J above
        N only the rows of the grid's n_nodes are kept."""
        J, n = self.kernel.size // 2, self.n_nodes
        out = np.zeros(n)
        out[:J] += np.correlate(ext[:J], self.kernel[:J], mode="full")[J - 1 :][:n]
        out[-J:] += np.correlate(ext[J:], self.kernel[J + 1 :], mode="full")[:J][-n:]
        return out

    def __call__(self, u: np.ndarray, far: np.ndarray) -> np.ndarray:
        """The correlation of u, with far = far_data(u's values beyond the
        grid); u and far are one row or a batch's rows."""
        if self.kernel_rfft is None:
            if u.ndim == 1:
                out = np.correlate(u, self.kernel, mode="same")
            else:
                out = np.array([np.correlate(r, k, mode="same") for r, k in zip(u, self.kernel)])
        else:
            J = self.kernel.shape[-1] // 2
            spectrum = rfft(u, self.fft_len)
            spectrum *= self.kernel_rfft
            out = irfft(spectrum, self.fft_len, overwrite_x=True)[..., J : J + self.n_nodes]
        out += far
        return out


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


def assemble_integral_operator(model: LevyModel, grid: GridSpec) -> IntegralOperator:
    """Build the discrete jump operator for one measure on one grid.  A
    measure whose shape witness cannot be built or is not admissible
    (`levy.ShapeParams.admissible`) is refused here, for every solve; an
    admissible witness, alpha < 3, already makes min(z^2, 1) nu(dz)
    integrable, so no quadrature runs."""
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
    try:
        w = shape_witness(model)
    except ValueError as exc:
        raise ValueError(f"measure is not admissible: witness unavailable: {exc}") from None
    # without a Gaussian factor (mu = 0) the upward wing must decay faster
    # than e^-z, or E[e^J] and the risk-neutral drift diverge
    if not w.admissible:
        raise ValueError(
            "measure is not admissible: need alpha < 3 and, with mu = 0, "
            f"d_minus + 1 < 0 < d_plus; got alpha = {w.alpha:g}, mu = {w.mu:g}, "
            f"d_minus + 1 = {w.d_minus + 1.0:g}, d_plus = {w.d_plus:g}"
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


@dataclass(frozen=True, eq=False)
class Penalty:
    """The penalty of an American job's step or start substep (see the
    module docstring): the interior obstacle w_0 at tau = 0, the scale
    (dt/eps) e^(x^-) on the interior for its operators' dt, and the sweep's
    max_picard and tol.  It compares by identity, so no two jobs' operators
    share a Lockstep.key."""

    obstacle: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)
    max_picard: int
    tol: float


@dataclass(frozen=True)
class ImexOperators:
    """Assembled pieces shared by the time steps: grid arrays, the jump
    operator, the explicit operator E as one correlation with the far field's
    precomputed shares, and one step's banded implicit matrix with its LU
    factors.  The band carries the edge couplings as well: its sub-diagonal
    and super-diagonal couple the first and last interior equations to the
    Dirichlet values at xs[0] and xs[-1].

    assemble_operators returns the SBDF2 step's operators: dt is the time
    step and band is (3/2) I - dt D.  Their `start` holds the same pieces with
    the start substep's dt / 4 and band I - (dt / 4) D, and no start of its own.
    A step reads them as a batch of one row (`Lockstep` is the batch of k).

    Operators with a penalty run the penalty sweep in place of the banded
    solve; an American job's operators and their start each carry one
    (`american.penalized_operators`).
    """

    spec: OptionSpec
    grid: GridSpec
    xs: np.ndarray
    dt: float
    integral: IntegralOperator
    # E on every node (its boundary rows unused)
    explicit: Correlation
    # explicit.far_data of the far field's level and growth beyond the grid:
    # their share of each of the N+1 rows
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
    penalty: Penalty | None = field(default=None, repr=False)

    @property
    def rows(self) -> tuple[ImexOperators]:
        return (self,)

    @property
    def strike(self) -> float:
        return self.spec.strike

    def growth(self, tau: float) -> float:
        """The far field's growth factor e^(r tau)."""
        return math.exp(self.spec.rate * tau)

    def edge_values(self, tau: float) -> tuple[float, float]:
        """The Dirichlet values at xs[0] and xs[-1] at tau."""
        grow = self.growth(tau)
        return (
            self.edge_level[0] + grow * self.edge_growth[0],
            self.edge_level[1] + grow * self.edge_growth[1],
        )


@dataclass(frozen=True)
class Lockstep:
    """The operators of k jobs stepped as the rows of one (k, N+1) array.

    The rows share one key (`key`): one factored band serves them all, their
    kernels take one correlation path at one FFT length, and one strike is
    the growth guard's floor; each row keeps its own kernel, far field and
    Dirichlet values.  It reads like
    an ImexOperators whose per-row pieces are stacked: growth and edge_values
    return one value per row.
    """

    rows: tuple[ImexOperators, ...]
    dt: float
    explicit: Correlation
    far_level: np.ndarray = field(repr=False)
    far_growth: np.ndarray = field(repr=False)
    # (k, 2): level and growth at xs[0] and xs[-1], one row per job
    edge_level: np.ndarray = field(repr=False)
    edge_growth: np.ndarray = field(repr=False)
    strike: float
    band: np.ndarray = field(repr=False)
    band_lu: tuple = field(repr=False)
    start: Lockstep | None = field(default=None, repr=False)
    # Lockstep.of refuses a row with a penalty, so a batch steps through its band
    penalty = None

    @staticmethod
    def key(ops: ImexOperators) -> tuple:
        """The batch rule: rows with equal keys march as one batch.  A
        penalty is one job's own, so a row with a penalty shares its key with
        no other job's."""
        bands = ops.band.tobytes(), ops.start.band.tobytes()
        return (ops.grid, ops.dt, ops.spec.strike, ops.explicit.kernel.size, *bands, ops.penalty)

    @classmethod
    def of(cls, rows: Sequence[ImexOperators]) -> Lockstep:
        """The batch of rows, with the batch of their starts; rows with a
        penalty, and rows whose keys differ, are refused."""
        first = rows[0]
        if any(ops.penalty is not None for ops in rows):
            raise ValueError("a lockstep batch takes no row with a sweep; march such a row alone")
        if any(cls.key(ops) != cls.key(first) for ops in rows[1:]):
            raise ValueError("a lockstep batch needs one grid, dt, strike, jump reach and band")
        ex = first.explicit
        spectra = None
        if ex.kernel_rfft is not None:
            spectra = np.stack([ops.explicit.kernel_rfft for ops in rows])
        explicit = Correlation(
            np.stack([ops.explicit.kernel for ops in rows]), spectra, ex.fft_len, ex.n_nodes
        )
        batch = cls(
            rows=tuple(rows),
            dt=first.dt,
            explicit=explicit,
            far_level=np.stack([ops.far_level for ops in rows]),
            far_growth=np.stack([ops.far_growth for ops in rows]),
            edge_level=np.array([ops.edge_level for ops in rows]),
            edge_growth=np.array([ops.edge_growth for ops in rows]),
            strike=first.spec.strike,
            band=first.band,
            band_lu=first.band_lu,
        )
        # a start differs from its step in dt and the band alone (see
        # assemble_operators), so the starts' batch shares the stacked pieces
        start, starts = first.start, tuple(ops.start for ops in rows)
        start_batch = replace(batch, rows=starts, dt=start.dt, band=start.band, band_lu=start.band_lu)
        return replace(batch, start=start_batch)

    def growth(self, tau: float) -> np.ndarray:
        """Each row's e^(r tau), as a (k, 1) column; math.exp, as a row of one
        computes it, so the bits are a solo solve's."""
        return np.array([[math.exp(ops.spec.rate * tau)] for ops in self.rows])

    def edge_values(self, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """Each row's Dirichlet values at xs[0] and at xs[-1] at tau."""
        values = self.edge_level + self.growth(tau) * self.edge_growth
        return values[:, 0], values[:, 1]


def _factored_band(
    spec: OptionSpec, grid: GridSpec, dt: float, lead: float
) -> tuple[np.ndarray, tuple]:
    """lead I - dt D on the interior nodes, D = (sigma^2/2) d_xx: the band
    and its dgttrf factors.  The band carries the edge couplings too: a step
    folds the Dirichlet value at xs[0] with minus its sub-diagonal and the one
    at xs[-1] with minus its super-diagonal (see _implicit_step)."""
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
    return replace(ops, start=replace(ops, dt=sub, band=sub_band, band_lu=sub_lu))


def _check_info(info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError("singular matrix")


def _implicit_solve(
    ops: ImexOperators | Lockstep, rhs: np.ndarray, extra_diag: np.ndarray | None = None
) -> np.ndarray:
    """Solve the implicit system for the interior nodes, one right-hand side
    per row of rhs: through the factors made at assembly, or, with extra_diag
    added to the diagonal, by one fresh elimination."""
    if extra_diag is None:
        x, info = dgttrs(*ops.band_lu, rhs.T)
    else:
        band = ops.band
        *_, x, info = dgtsv(band[2, :-1], band[1] + extra_diag, band[0, 1:], rhs.T)
    _check_info(info)
    return x.T


class GrowthGuardError(RuntimeError):
    """The growth guard refused a level; row is the batch row that left the
    stability envelope (0 for a solve of one job)."""

    def __init__(self, message: str, row: int) -> None:
        super().__init__(message)
        self.row = row

    def __reduce__(self):
        # BaseException pickles self.args, the message alone; a march in a
        # pool's child process returns its error to the parent by pickle
        return type(self), (str(self), self.row)


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


def _stiffness(ops: ImexOperators) -> str:
    """The explicit operator's three stiffness numbers for ops' time step,
    the largest named, a NaN above any number: dt*W (the large jumps),
    dt*|b|/dx with b = r - sigma^2/2 - drift_correction (the drift) and
    dt*c_loc/dx^2 (the small-jump correction)."""
    dt, dx, integral, spec = ops.dt, ops.grid.dx, ops.integral, ops.spec
    drift = spec.rate - 0.5 * spec.sigma**2 - integral.drift_correction
    numbers = {
        "dt*W": dt * integral.total_weight,
        "dt*|b|/dx": dt * abs(drift) / dx,
        "dt*c_loc/dx^2": dt * integral.local_correction / dx**2,
    }
    quoted = ", ".join(f"{name} = {value:.4g}" for name, value in numbers.items())
    largest = max(numbers, key=lambda name: (math.isnan(numbers[name]), numbers[name]))
    return f"{quoted}; largest {largest}"


def _growth_guard(
    u_next: np.ndarray, prev_peak: float | np.ndarray, ops: ImexOperators | Lockstep
) -> float | np.ndarray:
    """Refuse u_next if a row left the envelope (1 + 20 dt) prev_peak, where
    prev_peak is max(max|u|, strike) of the level before; return u_next's
    max(max|u|, strike) per row, the next guard's prev_peak.  The envelope is
    at least the strike, so a row outside it has max|u| above the strike and
    the error quotes max|u| itself; the first such row names itself."""
    dt = ops.dt
    peak = np.abs(u_next).max(axis=-1, initial=ops.strike)
    envelope = (1.0 + 20.0 * dt) * prev_peak
    # a NaN compares False with anything and an inf scale lets an inf peak
    # pass, so non-finite values are refused explicitly
    passed = (peak <= envelope + 1e-9) & (peak < math.inf)
    if not all(passed.flat):
        row = int(np.argmin(passed))
        raise GrowthGuardError(
            f"time step amplified the solution beyond the stability envelope: "
            f"max|u_next| = {np.reshape(peak, -1)[row]:.6g} > (1 + 20 dt) scale = "
            f"{np.reshape(envelope, -1)[row]:.6g} (dt = {dt:.4g}, "
            f"{_stiffness(ops.rows[row])}); refine dt",
            row,
        )
    return peak


def _explicit_term(u: np.ndarray, ops: ImexOperators | Lockstep, tau: float) -> np.ndarray:
    """E(u) at tau on the interior nodes, the drift plus the jump term, for
    one row or a batch's rows: one correlation, with the far field supplying
    u beyond the grid."""
    far = ops.growth(tau) * ops.far_growth
    far += ops.far_level
    return ops.explicit(u, far)[..., 1:-1]


def _implicit_step(
    ops: ImexOperators | Lockstep,
    rhs: np.ndarray,
    u_prev: np.ndarray,
    tau_prev: float,
    prev_peak: float | np.ndarray,
) -> tuple[np.ndarray, float | np.ndarray]:
    """Fold the new Dirichlet values into rhs, solve with ops' matrix (or
    its penalty sweep) and guard; return the new level and its guard scale
    per row."""
    tau = tau_prev + ops.dt
    lo, hi = ops.edge_values(tau)
    # .T[0] and .T[-1] are the edge nodes of one row and of every row alike
    u_next = np.empty_like(u_prev)
    u_next.T[0], u_next.T[-1] = lo, hi
    # the edge equations' couplings to the Dirichlet nodes are the band's
    # sub-diagonal (low edge) and super-diagonal (high edge)
    rhs.T[0] -= ops.band[2, 0] * lo
    rhs.T[-1] -= ops.band[0, -1] * hi
    if ops.penalty is None:
        u_next[..., 1:-1] = _implicit_solve(ops, rhs)
    else:
        _penalty_sweep(ops, tau, rhs, u_next, u_prev)
    return u_next, _growth_guard(u_next, prev_peak, ops)


def _penalty_sweep(
    ops: ImexOperators, tau: float, rhs: np.ndarray, u_next: np.ndarray, u_prev: np.ndarray
) -> None:
    """Fill u_next's interior by the penalty sweep of ops' step or substep
    (see the module docstring): tau is the time of the new level, rhs has the
    new Dirichlet values folded into its edge equations, and u_next already
    holds them at its ends.  A sweep whose active set is empty adds nothing
    to the band, so it back-substitutes through the factors assembly made
    (`dgttrs`, the bits of a fresh elimination of the same band); any other
    sweep eliminates the band plus its penalty diagonal afresh (`dgtsv`)."""
    penalty = ops.penalty
    w_int = math.exp(ops.spec.rate * tau) * penalty.obstacle
    u_iter = u_prev
    active = u_iter[1:-1] < w_int
    for k in range(penalty.max_picard):
        if np.count_nonzero(active):
            pen = penalty.scale * active
            u_next[1:-1] = _implicit_solve(ops, rhs + pen * w_int, extra_diag=pen)
        else:
            u_next[1:-1] = _implicit_solve(ops, rhs)
        # the same active set would repeat this solve bit for bit in the
        # next sweep, which then stops on a zero update
        next_active = u_next[1:-1] < w_int
        if k + 1 < penalty.max_picard and next_active.tobytes() == active.tobytes():
            return
        diff = float(np.abs(u_next - u_iter).max())
        if diff < penalty.tol:
            return
        active = next_active
        u_iter = u_next.copy()
    worst = int(np.argmax(np.abs(u_next - u_prev)))
    raise PicardError(
        f"penalty iteration did not reach {penalty.tol:g} within {penalty.max_picard} sweeps "
        f"at tau = {tau:.6g} (worst node {worst}, x = {ops.xs[worst]:+.4f}, "
        f"last update {diff:.3g}; dt = {ops.dt:.4g}, {_stiffness(ops)})",
        node=worst,
        x=float(ops.xs[worst]),
        gap=diff,
        iterations=penalty.max_picard,
    )


class StepHistory(NamedTuple):
    """What an SBDF2 step from u_n takes besides u_n: u_(n-1), its
    b_(n-1) = u_(n-1)[1:-1] + dt E(u_(n-1)), and the growth guard's scale
    max(max|u_n|, strike), one per row."""

    u_before: np.ndarray
    b_before: np.ndarray
    peak: float | np.ndarray


def step_imex(
    u_prev: np.ndarray,
    ops: ImexOperators | Lockstep,
    tau_prev: float,
    history: StepHistory | None = None,
) -> tuple[np.ndarray, StepHistory]:
    """Advance one time level, from tau_prev to tau_prev + ops.dt; return the
    new level and the history its own step takes.  u_prev is one job's
    (N+1,) level with its ImexOperators, or a lockstep batch's (k, N+1)
    levels with their Lockstep.

    With the history of the step that made u_prev, this is the SBDF2 step.
    Its interior right-hand side is 2 b_n - b_(n-1) + u_(n-1)[1:-1] / 2, where
    b_n = u_n[1:-1] + dt E(u_n) is backward Euler's.  Without history, it is
    the start: _START_SUBSTEPS backward-Euler substeps with ops.start.  The
    first substep's jump apply also gives b_0, at the full dt.

    A step or substep whose operators have a `Penalty` runs the penalty
    sweep in place of the banded solve.
    """
    # the arithmetic runs in place on fresh arrays, in the order of
    # b = u_n + dt E(u_n) and rhs = (2 b - b_(n-1)) + u_(n-1) / 2
    explicit = _explicit_term(u_prev, ops, tau_prev)
    if history is not None:
        b = explicit
        b *= ops.dt
        b += u_prev[..., 1:-1]
        rhs = 2.0 * b
        rhs -= history.b_before
        rhs += 0.5 * history.u_before[..., 1:-1]
        u_next, peak = _implicit_step(ops, rhs, u_prev, tau_prev, history.peak)
        return u_next, StepHistory(u_prev, b, peak)
    start = ops.start
    # the first substep reads E(u_0) too, so b_0 gets arrays of its own
    b = u_prev[..., 1:-1] + ops.dt * explicit
    u_next, peak = u_prev, np.abs(u_prev).max(axis=-1, initial=ops.strike)
    for k in range(_START_SUBSTEPS):
        tau = tau_prev + k * start.dt
        if k:
            explicit = _explicit_term(u_next, start, tau)
        rhs = start.dt * explicit
        rhs += u_next[..., 1:-1]
        u_next, peak = _implicit_step(start, rhs, u_next, tau, peak)
    return u_next, StepHistory(u_prev, b, peak)


# ---------------------------------------------------------------------------
# the European solve and its surface

@dataclass(frozen=True)
class PriceSurface:
    """Transformed solution u on the (tau, x) grid, with the operators that
    made it.

    u[k] is the level at taus[k].  A solve stores every level of its grid, or,
    with keep_levels=False, only the payoff and the last level, with taus
    (0, T).  ops are the march's operators: its spec, grid, far field and jump
    measure, from which spec and xs are read.
    """

    ops: ImexOperators = field(repr=False)
    taus: np.ndarray
    u: np.ndarray

    @property
    def spec(self) -> OptionSpec:
        return self.ops.spec

    @property
    def xs(self) -> np.ndarray:
        return self.ops.xs

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


def _march(rows: Sequence[ImexOperators], keep_levels: bool = True) -> list[PriceSurface]:
    """Step rows' jobs from their payoffs to tau = T in lockstep and return
    their surfaces, in order.  With keep_levels each surface holds every
    level; without, the march holds only the levels a step takes and each
    surface holds the payoff and the last level, at taus (0, T).

    One row steps as a vector with its own operators, penalty included, k
    rows as a (k, N+1) array with their Lockstep, which refuses a row with a
    penalty; a failing row raises GrowthGuardError with its index, and the
    batch yields no surface."""
    first = rows[0]
    taus = first.grid.taus(first.spec.expiry)
    u0 = np.array([build_grid(row.spec, row.grid)[2] for row in rows])
    ops, u = (first, u0[0]) if len(rows) == 1 else (Lockstep.of(rows), u0)
    levels = None
    if keep_levels:
        levels = np.empty((len(rows), first.grid.n_time + 1, first.grid.n_space + 1))
        levels[:, 0] = u0
    history = None
    # Python floats: the step's scalar arithmetic on numpy scalars is slower
    for n, tau in enumerate(taus[:-1].tolist()):
        u, history = step_imex(u, ops, tau, history)
        if levels is not None:
            levels[:, n + 1] = u
    if levels is None:
        taus, levels = taus[[0, -1]], np.stack([u0, np.reshape(u, u0.shape)], axis=1)
    return [PriceSurface(ops=row, taus=taus, u=level) for row, level in zip(rows, levels)]


def solve_european(
    spec: OptionSpec, model: LevyModel, grid: GridSpec, *, keep_levels: bool = True
) -> PriceSurface:
    """March the transformed equation from the payoff to tau = T; with
    keep_levels=False the surface holds only tau = 0 and tau = T (see _march).
    Nothing checks the surface: jobs.price_jobs prices a European job and
    refuses prices that leave the static no-arbitrage bounds."""
    [surface] = _march([assemble_operators(spec, model, grid)], keep_levels=keep_levels)
    return surface


def price_at(surface: PriceSurface, t: float, S):
    """Price V(t, S): nearest stored tau level, linear interpolation in x.

    t = 0 reads the last level and t = T the payoff, whichever levels the
    surface stores; a surface that holds fewer levels than its grid (the
    levels (0, T) of keep_levels=False) refuses any other t.  Node queries
    reproduce stored values exactly.  S outside the grid range raises (no
    extrapolation).
    """
    spec = surface.spec
    tau = spec.expiry - t
    if tau < -1e-12 or tau > spec.expiry + 1e-12:
        raise ValueError(f"calendar time {t} outside [0, {spec.expiry}]")
    if len(surface.taus) < surface.ops.grid.n_time + 1 and not (
        abs(t) <= 1e-12 or abs(tau) <= 1e-12
    ):
        raise ValueError(
            f"calendar time {t}: the surface holds only t = 0 and t = {spec.expiry:g}, "
            "not every level of its grid"
        )
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
