"""Finite-difference pricing of European and American options under
jump-diffusion and infinite-activity jump models.

The transformed backward equation is solved on a uniform log-price grid with
a second-order IMEX time step (SBDF2): implicit diffusion, explicit drift and
jumps.  The
jump integral's discretization is calibrated so the discounted spot stays a
martingale on the grid.  American puts are handled by a penalty method.
`price_jobs` prices a list of jobs, European or American, in lockstep
batches and on forked workers, and checks European prices against the
static no-arbitrage bounds.  Analytic and Monte Carlo benchmarks live in
`oracle`.
"""
from .american import (
    ExerciseBoundary,
    LcpReport,
    PenaltyConfig,
    PicardError,
    extract_boundary,
    lcp_residual,
)
from .bs import OptionSpec, bs_price, payoff, u_bs
from .cli import RunConfig, emit_plotdata, main, run
from .jobs import Job, price_jobs
from .levy import (
    CGMY,
    NIG,
    CheckReport,
    Kou,
    LevyModel,
    Merton,
    NoJumps,
    ShapeParams,
    VarianceGamma,
    density,
    integrability_check,
    shape_witness,
    structural_condition_check,
)
from .oracle import McConfig, McResult, mc_price, merton_series_price
from .pide import (
    GridSpec,
    PriceSurface,
    build_grid,
    price_at,
    solve_european,
    step_imex,
)

__version__ = "0.1.0"

__all__ = [
    "CGMY",
    "CheckReport",
    "ExerciseBoundary",
    "GridSpec",
    "Job",
    "Kou",
    "LcpReport",
    "LevyModel",
    "McConfig",
    "McResult",
    "Merton",
    "NIG",
    "NoJumps",
    "OptionSpec",
    "PenaltyConfig",
    "PicardError",
    "PriceSurface",
    "RunConfig",
    "ShapeParams",
    "VarianceGamma",
    "bs_price",
    "build_grid",
    "density",
    "emit_plotdata",
    "extract_boundary",
    "integrability_check",
    "lcp_residual",
    "main",
    "mc_price",
    "merton_series_price",
    "payoff",
    "price_at",
    "price_jobs",
    "run",
    "shape_witness",
    "solve_european",
    "step_imex",
    "structural_condition_check",
    "u_bs",
    "__version__",
]
