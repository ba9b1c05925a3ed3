"""Command-line front end: parse run configurations, execute pricing jobs,
emit price tables and plot-ready data files.

Config files are JSON.  Top-level keys:

  option    {"kind", "strike", "expiry", "sigma", ["rate"]}; rate here is a
            default only (0), each scenario supplies its own.
  model     {"type": "none"|"merton"|"kou"|"vg"|"nig"|"cgmy", ...params}, or
            null for no jumps.  "vg" accepts either the density parameters
            (a, b, c) or the time-changed-diffusion ones (theta, kappa,
            sigma_vg).
  grid      {"half_width", "n_space", "n_time", ["z_max"], ["delta"]}.
  style     "european" (default) or "american".
  penalty   {"epsilon", "max_picard", "picard_tol"}; american style only,
            any other style refuses it (and --epsilon).
  outputs   [{"kind": "table"|"surface"|"boundary"|"plotdata", "path": ...}];
            with several scenarios, every kind but table writes one file per
            scenario, its path suffixed _r<rate>.  No two outputs may write
            the same file, and a path must name a file.
  scenarios [{"rate": r, "spots": [S, ...]}]; one pricing job per entry.
  closed_form  replace the solve by the closed form when the model has no
            jumps (also the --closed-form flag).

Every value is a number, except: n_space, n_time and max_picard are whole
numbers (400.0 reads as 400); kind, style, type and path are strings;
scenarios, spots and outputs are lists; closed_form is true or false.  A
null value reads as an absent one, and an absent grid or penalty value takes
GridSpec's or PenaltyConfig's default.  Any other JSON type, a missing
required field, or a key not listed above (a misspelled key would otherwise
read as an absent one), at the top level or in a section, is a one-line
ConfigError that names the field.

`price` and `table1` run through one job pipeline: the jobs are one per
scenario, or table1's built-in columns.  The main thread plans them in job
order: it assembles each job's operators, runs an American job's structural
check and writes its warning as a `warning: <message>` line on stderr, and
records a refusal as that job's error.  One rule makes the batches: jobs
whose operators share a pide.Lockstep.key and a step hook march together.  A
European job has no hook; an American job's is its own penalty sweep, so it
marches alone.  The marches then run on a pool of fork-started processes, at
most LEVYPIDE_WORKERS and one per CPU, a batch split into one march per
process at most; processes, not threads, because a march's dozen
elementwise numpy calls per step hand the GIL over and the sweep's `dgtsv`
holds it.  They run inline, one after another and each batch whole, when
there is one march, one worker or one CPU, when the work is below
_POOL_MIN_WORK (a fork and join costs about 10 ms), or when fork is
unavailable.  The pool is fork-only: the children inherit the planned
operators and the sweeps, closures that do not pickle.  Python 3.12 and
later warn on a fork in a process that runs other threads: the CLI starts
none, but a threaded BLAS may.  A job's outcome is one value: its
PriceSurface, its error, or None for a closed form.  The main thread writes
every file after the last march, in job order, so identical runs produce
byte-identical outputs whatever the worker count.  A European price at one
of a job's spots that leaves the static no-arbitrage bounds by more than
K dx^2 is a numerical failure (exit 2); a marching process that dies is a
one-line error (exit 1).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

# solve_european and solve_american_penalized are not called here, but stay
# bound: perfbench's tracer wraps the solve entry points at this module.
from .american import (  # noqa: F401
    PenaltyConfig,
    extract_boundary,
    penalized_operators,
    solve_american_penalized,
)
from .bs import OptionSpec, bs_price, payoff
from .levy import (
    CGMY,
    NIG,
    Kou,
    LevyModel,
    Merton,
    NoJumps,
    VarianceGamma,
    integrability_check,
    shape_witness,
    structural_condition_check,
)
from .pide import (  # noqa: F401
    GridSpec,
    ImexOperators,
    Lockstep,
    PriceSurface,
    _march,
    assemble_operators,
    price_at,
    solve_european,
)

__all__ = [
    "ConfigError",
    "OutputSpec",
    "Scenario",
    "RunConfig",
    "model_from_dict",
    "model_to_dict",
    "emit_plotdata",
    "run",
    "check",
    "main",
]

_OUTPUT_KINDS = ("table", "surface", "boundary", "plotdata")
_MODELS = {
    "none": NoJumps,
    "merton": Merton,
    "kou": Kou,
    "vg": VarianceGamma,
    "nig": NIG,
    "cgmy": CGMY,
}
_MODEL_ALIASES = {"nojumps": "none", "bs": "none", "variance_gamma": "vg"}
# VG's alternative parameter set, the subordinated Brownian motion's.
_VG_BM_PARAMS = ("theta", "kappa", "sigma_vg")
_TABLE1_SPOTS = (85.2144, 88.692, 92.3116, 96.0789, 100.0, 104.081, 108.329, 112.75)
# The spots of every plotdata file.
_PLOT_SPOTS = np.linspace(80.0, 125.0, 91)


class ConfigError(ValueError):
    """Configuration does not parse or validate; the message is one line."""


def _fmt9(v: float) -> str:
    """Shortest decimal that round-trips, capped at 9 significant digits."""
    if not math.isfinite(v):
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    return np.format_float_positional(
        float(v), precision=9, unique=True, fractional=False, trim="-"
    )


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
        raise ConfigError(f"LEVYPIDE_WORKERS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ConfigError(f"LEVYPIDE_WORKERS must be >= 1, got {n}")
    return min(n, _cpu_count())


# ---------------------------------------------------------------------------
# model (de)serialization


def model_from_dict(d) -> LevyModel:
    if d is None:
        return NoJumps()
    if isinstance(d, str):
        d = {"type": d}
    if not isinstance(d, Mapping):
        raise ConfigError(f"model must be an object or a name, got {type(d).__name__}")
    kind = _get(d, "type", _text, "", name="model type").lower()
    params = {k: v for k, v in d.items() if k != "type" and v is not None}
    cls = _MODELS.get(_MODEL_ALIASES.get(kind, kind))
    if cls is None:
        raise ConfigError(f"unknown model type: {kind!r} (expected one of {', '.join(_MODELS)})")
    if cls is NoJumps and params:
        raise ConfigError(f"model 'none' takes no parameters, got {sorted(params)}")
    build, names = cls, tuple(f.name for f in dataclasses.fields(cls))
    if cls is VarianceGamma and frozenset(params) != frozenset(names):
        if frozenset(params) != frozenset(_VG_BM_PARAMS):
            raise ConfigError(
                "vg model takes either (a, b, c) or (theta, kappa, sigma_vg), "
                f"got {sorted(params)}"
            )
        build, names = VarianceGamma.from_bm_params, _VG_BM_PARAMS
    if frozenset(params) != frozenset(names):
        raise ConfigError(
            f"{kind} model needs exactly the parameters {list(names)}, got {sorted(params)}"
        )
    try:
        return build(**{k: _number(params[k], f"{kind} {k}") for k in names})
    except ConfigError:
        raise
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {kind} parameters: {exc}") from exc


def model_to_dict(model: LevyModel) -> dict:
    """Canonical serialized form; VG always emits density parameters (a, b, c)."""
    for name, cls in _MODELS.items():
        if isinstance(model, cls):
            return {"type": name, **dataclasses.asdict(model)}
    raise TypeError(f"cannot serialize {type(model).__name__}")


# ---------------------------------------------------------------------------
# run configuration


def _typed(value, name: str, types: type | tuple, what: str):
    """value when it has one of the types, refusing any other JSON type; a JSON
    boolean, which Python reads as 0 or 1, is only true or false."""
    if isinstance(value, types) and (types is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{name} must be {what}, got {json.dumps(value, default=repr)}")


# The readers of the JSON types: reader(value, name) returns the value or
# refuses it as a one-line ConfigError that names it.
_text = functools.partial(_typed, types=str, what="a string")
_flag = functools.partial(_typed, types=bool, what="true or false")
_object = functools.partial(_typed, types=Mapping, what="an object")
_list = functools.partial(_typed, types=list, what="a list")


def _number(value, name: str) -> float:
    return float(_typed(value, name, (int, float), "a number"))


def _count(value, name: str) -> int:
    """A whole number: an integral float such as 400.0 reads as 400, and int()
    would truncate a fractional one.  An infinite or NaN count raises
    int()'s own error, which the section reports."""
    _number(value, name)
    n = int(value)
    if n != value:
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return n


def _get(d: Mapping, key: str, read: Callable, default=None, name: str | None = None):
    """read(d[key], name or key); an absent or null key reads as default."""
    value = d.get(key)
    return default if value is None else read(value, name or key)


def _check_keys(d: Mapping, name: str, known) -> None:
    """Refuse the first key of d that known lacks: a misspelled key would
    otherwise read as absent."""
    for key in d:
        if key not in known:
            raise ConfigError(f"unknown {name} key {key!r} (expected one of {', '.join(known)})")


def _section(cls, d: Mapping, name: str, readers: Mapping[str, Callable],
             refusal: str | None = None, **defaults):
    """cls built from the config section d: each field of readers that d holds
    is read by its reader, as `<name> <field>`; an absent one takes defaults'
    value, else cls's own default, and one with neither is refused by name,
    as is a key of d that readers lacks.  A refusal of cls's, or of int() or
    float(), reads `<refusal>: <reason>`."""
    _check_keys(d, name, readers)
    try:
        values = {key: _get(d, key, read, name=f"{name} {key}") for key, read in readers.items()}
        fields = {**defaults, **{key: v for key, v in values.items() if v is not None}}
        for f in dataclasses.fields(cls):
            if f.name not in fields and f.default is dataclasses.MISSING:
                raise ConfigError(f"{name} section is missing field {f.name!r}")
        return cls(**fields)
    except ConfigError:
        raise
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{refusal or f'invalid {name} section'}: {exc}") from exc


def _spots(value, name: str) -> tuple[float, ...]:
    return tuple(_number(s, "scenario spot") for s in _list(value, name))


@dataclass(frozen=True)
class OutputSpec:
    kind: str
    path: str


@dataclass(frozen=True)
class Scenario:
    rate: float
    spots: tuple[float, ...]


@dataclass(frozen=True)
class RunConfig:
    option: OptionSpec
    model: LevyModel
    grid: GridSpec
    style: str = "european"
    penalty: PenaltyConfig | None = None
    outputs: tuple[OutputSpec, ...] = ()
    scenarios: tuple[Scenario, ...] = ()
    closed_form: bool = False

    @classmethod
    def from_dict(cls, d: Mapping) -> "RunConfig":
        d = _object(d, "config root")
        _check_keys(d, "config", [f.name for f in dataclasses.fields(cls)])
        penalty = _get(d, "penalty", _object)
        cfg = cls(
            option=_section(
                OptionSpec, _get(d, "option", _object, {}), "option",
                {"strike": _number, "expiry": _number, "rate": _number, "sigma": _number,
                 "kind": _text},
                rate=0.0,
            ),
            model=model_from_dict(d.get("model")),
            grid=_section(
                GridSpec, _get(d, "grid", _object, {}), "grid",
                {"half_width": _number, "n_space": _count, "n_time": _count,
                 "z_max": _number, "delta": _number},
                "inconsistent grid",
            ),
            style=_get(d, "style", _text, "european"),
            penalty=None if penalty is None else _section(
                PenaltyConfig, penalty, "penalty",
                {"epsilon": _number, "max_picard": _count, "picard_tol": _number},
            ),
            outputs=tuple(
                _section(OutputSpec, _object(o, "each output"), "output",
                         {"kind": _text, "path": _text})
                for o in _get(d, "outputs", _list, [])
            ),
            scenarios=tuple(
                _section(Scenario, _object(s, "each scenario"), "scenario",
                         {"rate": _number, "spots": _spots})
                for s in _get(d, "scenarios", _list, [])
            ),
            closed_form=_get(d, "closed_form", _flag, False),
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.style not in ("european", "american"):
            raise ConfigError(f"style must be 'european' or 'american', got {self.style!r}")
        if not self.scenarios:
            raise ConfigError("scenario list is empty; nothing to price")
        K, L = self.option.strike, self.grid.half_width
        try:
            lo, hi = K * math.exp(-L), K * math.exp(L)
        except OverflowError as exc:
            raise ConfigError(f"grid half_width {L:g} is too wide: K e^L overflows") from exc
        for sc in self.scenarios:
            try:
                dataclasses.replace(self.option, rate=sc.rate)
            except ValueError as exc:
                raise ConfigError(f"scenario r={sc.rate:g}: {exc}") from exc
            if not sc.spots:
                raise ConfigError(f"scenario r={sc.rate:g} has an empty spot list")
            for s in sc.spots:
                if not (lo <= s <= hi):
                    raise ConfigError(
                        f"scenario spot S={s:g} outside the grid range [{lo:.4g}, {hi:.4g}]"
                    )
        if self.style == "american" and self.option.kind != "put":
            raise ConfigError("american style covers put options only")
        if self.penalty is not None and self.style != "american":
            raise ConfigError("penalty settings require style: american")
        substitute = self.closed_form and isinstance(self.model, NoJumps)
        for o in self.outputs:
            if o.kind not in _OUTPUT_KINDS:
                raise ConfigError(
                    f"unknown output kind {o.kind!r} (expected one of {', '.join(_OUTPUT_KINDS)})"
                )
            if o.kind == "boundary" and self.style != "american":
                raise ConfigError("boundary output requires style: american")
            if substitute and o.kind in ("surface", "boundary"):
                raise ConfigError(
                    f"{o.kind} output needs the grid solve; drop closed_form"
                )
            if o.kind == "plotdata" and not substitute and not (
                lo <= _PLOT_SPOTS[0] and _PLOT_SPOTS[-1] <= hi
            ):
                raise ConfigError(
                    f"plotdata spots [{_PLOT_SPOTS[0]:g}, {_PLOT_SPOTS[-1]:g}] lie outside "
                    f"the grid range [{lo:.4g}, {hi:.4g}]"
                )
            _check_writable(o.path)
        written: set[str] = set()
        for o in self.outputs:
            for path in self._files(o):
                key = os.path.abspath(path)
                if key in written:
                    raise ConfigError(f"two outputs write the same file: {path}")
                written.add(key)

    def _files(self, out: OutputSpec) -> list[str]:
        """The files out writes: its path for a table, else one per scenario,
        suffixed _r<rate> when there is more than one."""
        if out.kind == "table" or len(self.scenarios) == 1:
            return [out.path]
        return [_suffixed(out.path, f"r{sc.rate:g}") for sc in self.scenarios]


def _suffixed(path: str, tag: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_{tag}{ext}"


def _check_writable(path: str) -> None:
    """Refuse an output path that is empty or names a directory, or whose
    directory is missing or read-only."""
    if not path or os.path.isdir(path):
        raise ConfigError(f"output path is not a file: {path!r}")
    parent = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise ConfigError(
            f"output path not writable: {path} (directory {parent} missing or read-only)"
        )


def _model_label(model: LevyModel) -> str:
    if isinstance(model, NoJumps):
        return "bs"
    return model_to_dict(model)["type"]


# ---------------------------------------------------------------------------
# plot data


def emit_plotdata(surfaces: Mapping[str, object], path: str) -> None:
    """Write columnar t=0 prices `S,V_<label>,...` at 91 spots on [80, 125].

    surfaces maps labels to either a PriceSurface or a callable S -> V (a
    closed-form reference); the columns keep the mapping's order.  Values use
    6 significant digits.
    """
    if not surfaces:
        raise ValueError("need at least one surface")
    S = _PLOT_SPOTS
    columns = []
    for surf in surfaces.values():
        if isinstance(surf, PriceSurface):
            vals = price_at(surf, 0.0, S)
        else:
            vals = np.asarray(surf(S), dtype=float)
        columns.append(vals)
    with open(path, "w", newline="") as fh:
        fh.write("S," + ",".join(f"V_{label}" for label in surfaces) + "\n")
        for i, s in enumerate(S):
            fh.write(f"{s:.6g}," + ",".join(f"{col[i]:.6g}" for col in columns) + "\n")


# ---------------------------------------------------------------------------
# the job pipeline shared by price and table1


@dataclass(frozen=True)
class _Job:
    """One price-table column: model None prices by the closed form, and a
    penalty config makes the solve American."""

    name: str
    spec: OptionSpec
    model: LevyModel | None
    grid: GridSpec
    spots: tuple[float, ...]
    penalty: PenaltyConfig | None = None


# The numerical failures a job may end in: exit 2, not a crash.
_FAILURES = (ValueError, ArithmeticError, RuntimeError)


class WorkerLostError(Exception):
    """A pool's child process died before it returned its march (the OOM
    killer, a signal, a crash in native code): exit 1, no file written."""


def _plan(job: _Job) -> tuple[ImexOperators, Callable | None]:
    """The job's operators and its step hook, None for a European job; an
    American job's structural warning goes to stderr now, in job order."""
    if job.penalty is None:
        return assemble_operators(job.spec, job.model, job.grid), None
    ops, sweep, warning = penalized_operators(job.spec, job.model, job.grid, job.penalty)
    if warning is not None:
        print(f"warning: {warning}", file=sys.stderr)
    return ops, sweep


def _march_task(
    rows: list[ImexOperators], solve: Callable | None, keep_levels: bool
) -> list[PriceSurface | Exception | None]:
    """March rows as one batch (see pide._march); each row's outcome is its
    surface or its error.  A failing row ends the march there, and the rows
    before it march again without it, so the first failure in job order is
    found whatever the batch, as if every row ran alone; the rows after it
    are left unsolved (None)."""
    if not rows:
        return []
    try:
        return _march(rows, solve, keep_levels)
    except _FAILURES as exc:
        row = getattr(exc, "row", 0)  # a GrowthGuardError names its row
        return [*_march_task(rows[:row], solve, keep_levels), exc] + [None] * (len(rows) - row - 1)


def _tasks(
    planned: Mapping[int, tuple[ImexOperators, Callable | None]], limit: int
) -> list[tuple[list[int], Callable | None]]:
    """The marches of the planned jobs, by job index: jobs whose operators
    share a Lockstep.key and whose step hook is the same march together, and
    each such batch splits into at most limit contiguous runs in job order,
    whose sizes differ by at most one.  The marches come in the order of
    their first jobs."""
    batches: dict[tuple, list[int]] = {}
    for i, (ops, sweep) in planned.items():
        batches.setdefault((Lockstep.key(ops), sweep), []).append(i)
    tasks = [
        (chunk.tolist(), sweep)
        for (_, sweep), members in batches.items()
        for chunk in np.array_split(members, min(len(members), limit))
    ]
    return sorted(tasks, key=lambda task: task[0][0])


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
# sweeps), so a two-scenario American gains from the pool below this
# figure.  No benchmark workload pins the crossover: american_strip prices
# one job a call, inline by job count, and table1_fine is far above it.
_POOL_MIN_WORK = 700_000

# The marches a pool's child runs, inherited from the parent at fork; only
# the pool's initializer writes it, in the child.
_CHILD_MARCHES: list[tuple[list[ImexOperators], Callable | None, bool]] = []


def _processes(planned: Mapping[int, tuple[ImexOperators, Callable | None]], limit: int) -> int:
    """How many processes march the planned jobs: limit, or 1, inline, when
    limit is 1, when there is one job, when the work is below
    _POOL_MIN_WORK, or when fork is unavailable."""
    work = sum((ops.grid.n_space + 1) * ops.grid.n_time for ops, _ in planned.values())
    if limit < 2 or len(planned) < 2 or work < _POOL_MIN_WORK:
        return 1
    import multiprocessing

    return limit if "fork" in multiprocessing.get_all_start_methods() else 1


def _adopt_marches(marches: list) -> None:
    """The pool's initializer: a child keeps the marches it inherited."""
    _CHILD_MARCHES[:] = marches


def _march_levels(index: int) -> list[tuple[np.ndarray, np.ndarray] | Exception | None]:
    """A child's march of its inherited march index: each row's (taus, u)
    levels, or its error; the parent rebuilds the surfaces from the
    operators it holds."""
    return [
        (out.taus, out.u) if isinstance(out, PriceSurface) else out
        for out in _march_task(*_CHILD_MARCHES[index])
    ]


def _march_on_pool(
    marches: list[tuple[list[ImexOperators], Callable | None, bool]], processes: int
) -> list[list[PriceSurface | Exception | None]]:
    """Each march's outcomes (_march_task), in order, marched on a pool of
    fork-started processes.  The children inherit the marches, step hooks
    included, so a task sends only its index.  A child that dies raises
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
            initializer=_adopt_marches,
            initargs=(marches,),
        ) as pool:
            levels = list(pool.map(_march_levels, range(len(marches))))
    except BrokenProcessPool:
        raise WorkerLostError("a worker process died while marching") from None
    return [
        [
            PriceSurface(ops=ops, taus=out[0], u=out[1]) if isinstance(out, tuple) else out
            for ops, out in zip(rows, outs)
        ]
        for (rows, _, _), outs in zip(marches, levels)
    ]


def _solve_jobs(jobs: list[_Job], keep_levels: bool) -> list[PriceSurface | Exception | None]:
    """Plan the jobs on the main thread (_plan), then march them in batches
    of one (Lockstep.key, step hook) (_tasks): an American job's penalty
    sweep is its own, so it marches alone.  On a pool of processes
    (_processes) a batch splits into one march per process at most;
    inline, it marches whole.

    Processes, not threads: a thread hands the GIL over at each of a step's
    dozen elementwise numpy calls, and the penalty sweep's `dgtsv` holds it.
    Two processes against the two threads that marched before, interleaved
    in one process on a 2-vCPU Xeon (numpy 2.4, scipy 1.17), median of 9,
    bits identical: table1 at 3200 x 1600 818 against 947 ms, a
    two-scenario American at 1600 x 800 191 against 324 ms.  The marches
    run inline when there is one job (every one-scenario price), one worker
    or one CPU, below _POOL_MIN_WORK, or without fork; a two-scenario
    American at 400 x 200 then takes 34 ms, against 41 ms on threads.  The
    pool forks, as only a fork hands the children the penalty sweeps,
    closures that do not pickle."""
    limit = _worker_limit()
    outcomes: list[PriceSurface | Exception | None] = [None] * len(jobs)
    planned: dict[int, tuple[ImexOperators, Callable | None]] = {}
    for i, job in enumerate(jobs):
        if job.model is None:
            continue
        try:
            planned[i] = _plan(job)
        except _FAILURES as exc:
            outcomes[i] = exc
    processes = _processes(planned, limit)
    tasks = _tasks(planned, processes)
    marches = [([planned[i][0] for i in idx], sweep, keep_levels) for idx, sweep in tasks]
    if processes > 1:
        results = _march_on_pool(marches, processes)
    else:
        results = [_march_task(*march) for march in marches]
    for (idx, _), outs in zip(tasks, results):
        for i, out in zip(idx, outs):
            outcomes[i] = out
    return outcomes


def _prices_on(job: _Job, surface: PriceSurface | None) -> dict[float, float]:
    """The job's t = 0 prices by spot, from one call over all its spots; a
    European grid solve's are checked against the static bounds."""
    spots = np.array(job.spots)
    if surface is None:
        prices = bs_price(job.spec, spots)
    else:
        prices = price_at(surface, 0.0, spots)
        if job.penalty is None:
            _check_static_bounds(surface.ops, spots, prices)
    return dict(zip(job.spots, prices.tolist()))


def _check_static_bounds(ops: ImexOperators, spots: np.ndarray, prices: np.ndarray) -> None:
    """Refuse European t = 0 prices that leave the static no-arbitrage bounds,
    max(K e^(-rT) - S, 0) <= P <= K e^(-rT) for a put and
    max(S - K e^(-rT), 0) <= C <= S for a call, by more than K dx^2, the size
    of a second-order discretization error.  The message quotes the worst
    spot, the bound it leaves and the stiffness numbers dt*W and
    dt*c_loc/dx^2."""
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
            f"{bound:.6g} by {excess[i]:.4g} > K dx^2 = {tol:.4g} "
            f"(dt*W = {ops.dt * ops.integral.total_weight:.3g}, "
            f"dt*c_loc/dx^2 = {ops.dt * ops.integral.local_correction / dx**2:.3g})"
        )


def _run_jobs(
    jobs: list[_Job],
    outputs: Sequence[OutputSpec],
    write_other: Callable[[OutputSpec, list[PriceSurface | None]], None] | None = None,
) -> int:
    """Solve the jobs (_solve_jobs), then write the outputs in order from the
    main thread: `table` outputs here, every other kind through
    write_other(output, surfaces).  Print the table last.  Every column
    shares jobs[0]'s payoff.  Surface and boundary outputs read every time
    level, the others t = 0's alone, so the marches keep every level only
    for those (see pide._march).  Exit 2 on a numerical failure, naming the
    first failing job, before any file is written; 1 on a write error or
    when a marching process dies (WorkerLostError)."""
    keep_levels = any(o.kind in ("surface", "boundary") for o in outputs)
    try:
        outcomes = _solve_jobs(jobs, keep_levels)
    except WorkerLostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    columns = []
    try:
        for job, out in zip(jobs, outcomes):
            if isinstance(out, Exception):
                raise out
            columns.append(_prices_on(job, out))
    except _FAILURES as exc:
        print(f"numerical failure in {job.name}: {exc}", file=sys.stderr)
        return 2

    spots = list(dict.fromkeys(s for job in jobs for s in job.spots))
    pay = [float(payoff(jobs[0].spec, s)) for s in spots]
    header = ["S", "payoff", *(job.name for job in jobs)]
    try:
        for out in outputs:
            if out.kind != "table":
                write_other(out, outcomes)
                continue
            with open(out.path, "w", newline="") as fh:
                fh.write(",".join(header) + "\n")
                for s, p in zip(spots, pay):
                    cells = [_fmt9(col[s]) if s in col else "" for col in columns]
                    fh.write(f"{_fmt9(s)},{_fmt9(p)}," + ",".join(cells) + "\n")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1

    rows = [
        [f"{s:g}", f"{p:.6g}", *(f"{col[s]:.6g}" if s in col else "" for col in columns)]
        for s, p in zip(spots, pay)
    ]
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    for r in [header, *rows]:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return 0


# ---------------------------------------------------------------------------
# the price command


def _execute(cfg: RunConfig) -> int:
    closed = cfg.closed_form and isinstance(cfg.model, NoJumps)
    penalty = None
    if cfg.style == "american":
        penalty = cfg.penalty if cfg.penalty is not None else PenaltyConfig()
    jobs: list[_Job] = []
    for sc in cfg.scenarios:
        name = f"V_r{sc.rate:g}"
        while any(job.name == name for job in jobs):
            name += "'"
        jobs.append(
            _Job(
                name=name,
                spec=dataclasses.replace(cfg.option, rate=sc.rate),
                model=None if closed else cfg.model,
                grid=cfg.grid,
                spots=sc.spots,
                penalty=penalty,
            )
        )

    def write_other(out: OutputSpec, surfaces: list[PriceSurface | None]) -> None:
        label = _model_label(cfg.model)
        for job, surface, dest in zip(jobs, surfaces, cfg._files(out)):
            if out.kind == "surface":
                surface.to_csv(dest)
            elif out.kind == "boundary":
                extract_boundary(surface).to_csv(dest)
            else:
                closed_form = functools.partial(bs_price, job.spec)
                cols: dict[str, object] = {}
                if label != "bs":
                    cols["bs"] = closed_form
                cols[label] = surface if surface is not None else closed_form
                emit_plotdata(cols, dest)

    return _run_jobs(jobs, cfg.outputs, write_other)


def _load_config(config_path: str, overrides: argparse.Namespace | None) -> RunConfig:
    with open(config_path) as fh:
        raw = json.load(fh)
    if overrides is not None:
        _apply_overrides(raw, overrides)
    return RunConfig.from_dict(raw)


def _apply_overrides(d, args: argparse.Namespace) -> None:
    if not isinstance(d, dict):
        return  # RunConfig.from_dict refuses the root
    if getattr(args, "model", None) is not None:
        text = args.model.strip()
        if text.startswith("{"):
            try:
                d["model"] = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--model is not valid JSON: {exc}") from exc
        else:
            d["model"] = {"type": text}
    if getattr(args, "rate", None) is not None:
        deduped: list = []
        for sc in _get(d, "scenarios", _list, []):
            if isinstance(sc, Mapping):
                sc = {**sc, "rate": args.rate}
            if sc not in deduped:
                deduped.append(sc)
        d["scenarios"] = deduped
    for flag, section, key in (
        ("grid_n", "grid", "n_space"),
        ("grid_m", "grid", "n_time"),
        ("epsilon", "penalty", "epsilon"),
    ):
        if getattr(args, flag, None) is not None:
            d[section] = {**_get(d, section, _object, {}), key: getattr(args, flag)}
    if getattr(args, "closed_form", False):
        d["closed_form"] = True
    if getattr(args, "output", None) is not None:
        outputs = [
            o
            for o in _get(d, "outputs", _list, [])
            if not (isinstance(o, Mapping) and o.get("kind") == "table")
        ]
        outputs.append({"kind": "table", "path": args.output})
        d["outputs"] = outputs


def run(config_path: str, overrides: argparse.Namespace | None = None) -> int:
    """Exit 0 on success, 1 on a parse/validation problem, 2 on numerical failure."""
    try:
        cfg = _load_config(config_path, overrides)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _execute(cfg)


# ---------------------------------------------------------------------------
# the check command


def check(config_path: str) -> int:
    """Print admissibility, integrability, and structural reports for the
    configured model; exit 0 when every check passes, 2 otherwise."""
    try:
        cfg = _load_config(config_path, None)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    model = cfg.model
    if isinstance(model, NoJumps):
        print("model: none (no jump component; measure checks are vacuous)")
        return 0
    print(f"model: {_model_label(model)}")
    ok = True
    try:
        w = shape_witness(model)
    except ValueError as exc:
        print(f"witness: unavailable ({exc})")
        ok = False
    else:
        print(
            f"witness: alpha={w.alpha:g} d_minus={w.d_minus:g} d_plus={w.d_plus:g} "
            f"mu={w.mu:g} c0={w.c0:g} admissible={w.admissible}"
        )
        ok = ok and w.admissible
    rep = integrability_check(model)
    print(f"integrability: passed={rep.passed} value={rep.value:.6g} ({rep.detail})")
    ok = ok and rep.passed
    for rate in sorted({sc.rate for sc in cfg.scenarios}):
        rep = structural_condition_check(model, rate)
        print(f"structural r={rate:g}: passed={rep.passed} value={rep.value:.6g} ({rep.detail})")
        ok = ok and rep.passed
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# the table1 preset


def _run_table1(args: argparse.Namespace) -> int:
    """Reproduce the benchmark put-price table: payoff, closed forms at both
    volatility conventions, and the two jump models, at r in {0, 0.1}."""
    counts = {"n_space": args.grid_n, "n_time": args.grid_m}
    try:
        grid = GridSpec(**{key: n for key, n in counts.items() if n is not None})
        if args.output is not None:
            _check_writable(args.output)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    base = OptionSpec(strike=100.0, expiry=1.0, rate=0.0, sigma=0.23, kind="put")
    merton = Merton(lam=0.1, m=-0.2, delta=0.15)
    vg = VarianceGamma.from_bm_params(theta=-0.43, kappa=0.27, sigma_vg=0.23)
    jobs = [
        _Job(
            name=f"{name}_r{r:g}",
            spec=dataclasses.replace(base, rate=r, sigma=sigma),
            model=model,
            grid=grid,
            spots=_TABLE1_SPOTS,
        )
        for r in (0.0, 0.1)
        for name, sigma, model in (
            ("bs_sigma0.12", 0.12, None),
            ("bs_sigma0.23", 0.23, None),
            ("merton", 0.23, merton),
            ("vg", 0.23, vg),
        )
    ]
    outputs = [] if args.output is None else [OutputSpec(kind="table", path=args.output)]
    return _run_jobs(jobs, outputs)


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levypide",
        description="Finite-difference option pricing under jump-diffusion models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("price", help="run the pricing jobs from a config file")
    pp.add_argument("--config", required=True, help="JSON run configuration")
    pp.add_argument(
        "--model",
        help="override the model: a bare name like 'none' or an inline JSON object",
    )
    pp.add_argument("--rate", type=float, help="set every scenario's rate")
    pp.add_argument("--output", help="set the table output path")
    pp.add_argument("--grid-n", type=int, dest="grid_n", help="spatial intervals")
    pp.add_argument("--grid-m", type=int, dest="grid_m", help="time steps")
    pp.add_argument("--epsilon", type=float, help="penalty strength (american style)")
    pp.add_argument(
        "--closed-form",
        action="store_true",
        dest="closed_form",
        help="use the closed form when the model has no jumps",
    )

    pc = sub.add_parser("check", help="run the measure checks for a config's model")
    pc.add_argument("--config", required=True, help="JSON run configuration")

    pt = sub.add_parser("table1", help="reproduce the benchmark price table")
    pt.add_argument("--output", help="also write the table as CSV")
    pt.add_argument("--grid-n", type=int, dest="grid_n", help="spatial intervals")
    pt.add_argument("--grid-m", type=int, dest="grid_m", help="time steps")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        if args.command == "price":
            return run(args.config, args)
        if args.command == "check":
            return check(args.config)
        return _run_table1(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
