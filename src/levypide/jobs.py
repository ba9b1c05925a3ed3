"""The job pipeline: price a list of option jobs, European or American, on
their grids or by the closed form, and report each job's outcome.

A `Job` is one spec, one model (None prices by the closed form, `bs_price`),
one grid, the spots to price at t = 0, and a PenaltyConfig for an American
put.  `price_jobs(jobs, keep_levels)` returns each job's outcome, in job
order: its error, or its t = 0 prices at its spots with its surface
(`Priced`; the surface is None for a closed form).

It plans the jobs in job order: it assembles each job's operators, runs an
American job's structural check, which warns (`american.StructuralWarning`),
and records a refusal as that job's error.  A job is priced by its
operators alone, and one rule makes the batches: jobs whose operators share
a pide.Lockstep.key march together (an American job's operators share it
with no other job's).  The marches then run on a pool of fork-started
processes, at most LEVYPIDE_WORKERS and one per CPU, a batch split into one
march per process at most.  They run inline, one after another and each
batch whole, when there is one march, one worker or one CPU, when the work
is below _POOL_MIN_WORK (a fork and join costs about 10 ms), or when fork is
unavailable.  A child receives its march's operators and returns its
surfaces or errors by pickle.  The pool is fork-only: a fork-started child
does not import levypide again, while a spawned one would start an
interpreter and import it, about 0.7 s on a 2-vCPU host.  Python 3.12 and
later warn on a fork in a process that runs other threads: the pipeline
starts none, but a threaded BLAS may.  The outcomes do not depend on the
worker count.

Processes, not threads: a thread hands the GIL over at each of a step's
dozen elementwise numpy calls, and an American step's `dgtsv` holds it.  Two
processes against the two threads that marched before, interleaved in one
process on a 2-vCPU Xeon (numpy 2.4, scipy 1.17), median of 9, bits
identical: table1 at 3200 x 1600 818 against 947 ms, a two-scenario
American at 1600 x 800 191 against 324 ms.  Inline, a two-scenario American
at 400 x 200 takes 34 ms, against 41 ms on threads.

A European grid price at one of a job's spots that leaves the static
no-arbitrage bounds by more than K dx^2 is that job's error; a marching
process that dies raises WorkerLostError, and a LEVYPIDE_WORKERS that is not
a count >= 1 raises ValueError, before any job is planned.
"""
from __future__ import annotations

import functools
import math
import os
import sys
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .american import PenaltyConfig, StructuralWarning, penalized_operators
from .bs import OptionSpec, bs_price
from .levy import LevyModel, structural_condition_check
from .pide import (
    GridSpec,
    ImexOperators,
    Lockstep,
    PriceSurface,
    _march,
    _stiffness,
    assemble_operators,
    price_at,
)

__all__ = ["Job", "Priced", "WorkerLostError", "price_jobs"]


@dataclass(frozen=True)
class Job:
    """One pricing job: model None prices by the closed form, and a penalty
    config makes the solve American."""

    spec: OptionSpec
    model: LevyModel | None
    grid: GridSpec
    spots: tuple[float, ...]
    penalty: PenaltyConfig | None = None


class Priced(NamedTuple):
    """A job's t = 0 prices at its spots, in order, and its surface (None for
    a closed form)."""

    prices: np.ndarray
    surface: PriceSurface | None


# The numerical failures a job may end in: its outcome, not a crash.
_FAILURES = (ValueError, ArithmeticError, RuntimeError)


class WorkerLostError(Exception):
    """A pool's child process died before it returned its march (the OOM
    killer, a signal, a crash in native code)."""


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_limit() -> int:
    """The most marches that run at once: LEVYPIDE_WORKERS, at most one per
    CPU."""
    raw = os.environ.get("LEVYPIDE_WORKERS")
    if not raw:
        return _cpu_count()
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"LEVYPIDE_WORKERS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ValueError(f"LEVYPIDE_WORKERS must be >= 1, got {n}")
    return min(n, _cpu_count())


def _plan(job: Job) -> ImexOperators:
    """The job's operators.  An American job whose measure violates the
    structural condition warns (StructuralWarning) now, in job order, at the
    line that called price_jobs; a measure that assembly refuses raises
    first."""
    if job.penalty is None:
        return assemble_operators(job.spec, job.model, job.grid)
    ops = penalized_operators(job.spec, job.model, job.grid, job.penalty)
    structural = structural_condition_check(job.model, job.spec.rate)
    if not structural.passed:
        warnings.warn(
            "structural condition violated (upward-jump budget exceeds the rate: "
            f"{structural.detail}); the penalized solve proceeds, but the "
            "complementarity characterization of the American price is not guaranteed",
            StructuralWarning,
            stacklevel=3,
        )
    return ops


def _march_task(rows: list[ImexOperators], keep_levels: bool) -> list[PriceSurface | Exception]:
    """March rows as one batch (see pide._march); each row's outcome is its
    surface or its error.  A failing row ends the march there, and the rows
    before it and after it march again without it, so every row's outcome is
    the one it would have marched alone."""
    if not rows:
        return []
    try:
        return _march(rows, keep_levels)
    except _FAILURES as exc:
        row = getattr(exc, "row", 0)  # a GrowthGuardError names its row
        before, after = rows[:row], rows[row + 1 :]
        return [*_march_task(before, keep_levels), exc, *_march_task(after, keep_levels)]


def _tasks(planned: Mapping[int, ImexOperators], limit: int) -> list[list[int]]:
    """The marches of the planned jobs, as lists of job indices: jobs whose
    operators share a Lockstep.key march together, and each such batch
    splits into at most limit contiguous runs in job order, whose sizes
    differ by at most one.  The marches come in the order of their first
    jobs."""
    batches: dict[tuple, list[int]] = {}
    for i, ops in planned.items():
        batches.setdefault(Lockstep.key(ops), []).append(i)
    tasks = [
        chunk.tolist()
        for members in batches.values()
        for chunk in np.array_split(members, min(len(members), limit))
    ]
    return sorted(tasks, key=lambda idx: idx[0])


# A run marches inline below this much work: node-steps, (N+1) M per job.
# A fork and join costs about 10 ms, and a batch split across processes
# loses its lockstep.  Inline against two processes on a 2-vCPU Xeon
# (numpy 2.4, scipy 1.17), interleaved in one process, median of 21:
#   table1's four jump jobs   800x200 (0.64e6)  42 vs 57 ms
#                            1200x200 (0.96e6)  70 vs 60 ms
#                            1600x200 (1.28e6)  99 vs 75 ms
#   a two-scenario American   400x200 (0.16e6)  32.6 vs 32.7 ms
#                             800x200 (0.32e6)  51 vs 47 ms
#                             800x400 (0.64e6)  92 vs 72 ms
# An American node-step costs about twice a European one (its penalty
# iterations), so a two-scenario American gains from the pool below this
# figure.  No benchmark workload pins the crossover: american_strip prices
# one job a call, inline by job count, and table1_fine is far above it.
_POOL_MIN_WORK = 700_000


def _processes(planned: Mapping[int, ImexOperators], limit: int) -> int:
    """How many processes march the planned jobs: limit, or 1, inline, when
    limit is 1, when there is one job, when the work is below
    _POOL_MIN_WORK, or when fork is unavailable."""
    work = sum((ops.grid.n_space + 1) * ops.grid.n_time for ops in planned.values())
    if limit < 2 or len(planned) < 2 or work < _POOL_MIN_WORK:
        return 1
    import multiprocessing

    return limit if "fork" in multiprocessing.get_all_start_methods() else 1


def _march_on_pool(
    marches: list[list[ImexOperators]], keep_levels: bool, processes: int
) -> list[list[PriceSurface | Exception]]:
    """Each march's outcomes (_march_task), in order, marched on a pool of
    fork-started processes: a march goes to its child by pickle, and its
    outcomes come back the same way.  A child that dies raises
    WorkerLostError once the pool has shut down."""
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    # a child would write the parent's buffered output a second time
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        with ProcessPoolExecutor(
            max_workers=min(processes, len(marches)),
            mp_context=multiprocessing.get_context("fork"),
        ) as pool:
            return list(pool.map(functools.partial(_march_task, keep_levels=keep_levels), marches))
    except BrokenProcessPool:
        raise WorkerLostError("a worker process died while marching") from None


def _check_static_bounds(ops: ImexOperators, spots: np.ndarray, prices: np.ndarray) -> None:
    """Refuse European t = 0 prices that leave the static no-arbitrage bounds,
    max(K e^(-rT) - S, 0) <= P <= K e^(-rT) for a put and
    max(S - K e^(-rT), 0) <= C <= S for a call, by more than K dx^2, the size
    of a second-order discretization error.  The message quotes the worst
    spot, the bound it leaves and the step's stiffness numbers
    (pide._stiffness)."""
    spec, dx = ops.spec, ops.grid.dx
    discounted = spec.strike * math.exp(-spec.rate * spec.expiry)
    if spec.kind == "put":
        lower, upper = np.maximum(discounted - spots, 0.0), np.full_like(spots, discounted)
    else:
        lower, upper = np.maximum(spots - discounted, 0.0), spots
    excess = np.maximum(lower - prices, prices - upper)
    i = int(np.argmax(excess))
    tol = spec.strike * dx**2
    if excess[i] > tol:
        side, bound = ("lower", lower[i]) if prices[i] < lower[i] else ("upper", upper[i])
        raise RuntimeError(
            f"price {prices[i]:.6g} at S = {spots[i]:g} leaves the static {side} bound "
            f"{bound:.6g} by {excess[i]:.4g} > K dx^2 = {tol:.4g} ({_stiffness(ops)})"
        )


def _priced(job: Job, surface: PriceSurface | None) -> Priced | Exception:
    """The job's t = 0 prices, from one call over all its spots; a European
    grid solve's are checked against the static bounds."""
    spots = np.array(job.spots, dtype=float)
    try:
        if surface is None:
            prices = bs_price(job.spec, spots)
        else:
            prices = price_at(surface, 0.0, spots)
            if job.penalty is None and spots.size:
                _check_static_bounds(surface.ops, spots, prices)
    except _FAILURES as exc:
        return exc
    return Priced(prices, surface)


def price_jobs(jobs: Sequence[Job], keep_levels: bool = False) -> list[Priced | Exception]:
    """Each job's outcome, in job order: its error, or its t = 0 prices at its
    spots with its surface.  With keep_levels every surface holds every time
    level; without, the payoff and the last level (see pide._march), whose
    t = 0 prices are the same bits."""
    limit = _worker_limit()
    surfaces: list[PriceSurface | Exception | None] = [None] * len(jobs)
    planned: dict[int, ImexOperators] = {}
    for i, job in enumerate(jobs):
        if job.model is None:
            continue
        try:
            planned[i] = _plan(job)
        except _FAILURES as exc:
            surfaces[i] = exc
    processes = _processes(planned, limit)
    tasks = _tasks(planned, processes)
    marches = [[planned[i] for i in idx] for idx in tasks]
    if processes > 1:
        results = _march_on_pool(marches, keep_levels, processes)
    else:
        results = [_march_task(rows, keep_levels) for rows in marches]
    for idx, outs in zip(tasks, results):
        for i, out in zip(idx, outs):
            surfaces[i] = out
    return [
        out if isinstance(out, Exception) else _priced(job, out)
        for job, out in zip(jobs, surfaces)
    ]
