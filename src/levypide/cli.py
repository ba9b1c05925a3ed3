"""Command-line front end: parse run configurations, execute pricing jobs,
emit price tables and plot-ready data files.

Config files are JSON.  Top-level keys:

  option    {"kind", "strike", "expiry", "sigma", ["rate"]}; rate here is a
            default only, each scenario supplies its own.
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
            the same file.
  scenarios [{"rate": r, "spots": [S, ...]}]; one pricing job per entry.
  closed_form  replace the solve by the closed form when the model has no
            jumps (also the --closed-form flag).

`price` and `table1` run through one job pipeline: the jobs are one per
scenario, or table1's built-in columns.  The main thread plans them in job
order: it assembles each job's operators, runs an American job's structural
check and writes its warning as a `warning: <message>` line on stderr, and
records a refusal as that job's error.  A thread pool, whose size
LEVYPIDE_WORKERS caps, then only marches.  One rule makes its batches: jobs
whose operators share a pide.Lockstep.key and a step hook march together,
split into at most as many marches as there are threads and CPUs.  A
European job has no hook; an American job's is its own penalty sweep, so it
marches alone.  A job's outcome is one value: its PriceSurface, its error,
or None for a closed form.  The main thread writes every file after the
last march, in job order, so identical runs produce byte-identical outputs
whatever the worker count.  A European price at one of a job's spots that
leaves the static no-arbitrage bounds by more than K dx^2 is a numerical
failure (exit 2).
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
from concurrent.futures import ThreadPoolExecutor
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


def _max_workers() -> int | None:
    raw = os.environ.get("LEVYPIDE_WORKERS")
    if not raw:
        return None
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"LEVYPIDE_WORKERS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ConfigError(f"LEVYPIDE_WORKERS must be >= 1, got {n}")
    return n


# ---------------------------------------------------------------------------
# model (de)serialization


def model_from_dict(d) -> LevyModel:
    if d is None:
        return NoJumps()
    if isinstance(d, str):
        d = {"type": d}
    if not isinstance(d, Mapping):
        raise ConfigError(f"model must be an object or a name, got {type(d).__name__}")
    kind = str(d.get("type", "")).lower()
    params = {k: d[k] for k in d if k != "type"}
    cls = _MODELS.get(_MODEL_ALIASES.get(kind, kind))
    if cls is None:
        raise ConfigError(f"unknown model: {kind!r} (expected one of {', '.join(_MODELS)})")
    if cls is NoJumps and params:
        raise ConfigError(f"model 'none' takes no parameters, got {sorted(params)}")
    names = tuple(f.name for f in dataclasses.fields(cls))
    try:
        if cls is VarianceGamma and frozenset(params) != frozenset(names):
            if frozenset(params) != frozenset(_VG_BM_PARAMS):
                raise ConfigError(
                    "vg model takes either (a, b, c) or (theta, kappa, sigma_vg), "
                    f"got {sorted(params)}"
                )
            return VarianceGamma.from_bm_params(**_floats(params, _VG_BM_PARAMS, kind))
        return cls(**_floats(params, names, kind))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid {kind} parameters: {exc}") from exc


def _floats(params: Mapping, names: tuple[str, ...], kind: str) -> dict[str, float]:
    if frozenset(params) != frozenset(names):
        raise ConfigError(
            f"{kind} model needs exactly the parameters {list(names)}, got {sorted(params)}"
        )
    return {k: _number(params[k], f"{kind} {k}") for k in names}


def _number(value, name: str, convert: Callable = float):
    """convert(value), refusing a JSON boolean, which Python reads as 0 or 1."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {json.dumps(value)}")
    return convert(value)


def _count(value, name: str) -> int:
    """_number(value, name, int), refusing a fractional number, which int()
    would truncate; an integral float such as 400.0 is read as 400."""
    n = _number(value, name, int)
    if isinstance(value, float) and n != value:
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return n


def model_to_dict(model: LevyModel) -> dict:
    """Canonical serialized form; VG always emits density parameters (a, b, c)."""
    for name, cls in _MODELS.items():
        if isinstance(model, cls):
            return {"type": name, **dataclasses.asdict(model)}
    raise TypeError(f"cannot serialize {type(model).__name__}")


# ---------------------------------------------------------------------------
# run configuration


def _object(d: Mapping, key: str) -> Mapping:
    """d[key] as an object; absent or null reads as {}."""
    value = d.get(key)
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{key} must be an object, got {type(value).__name__}")
    return value


def _list(d: Mapping, key: str) -> list:
    """d[key] as a list; absent or null reads as []."""
    value = d.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {type(value).__name__}")
    return value


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
        if not isinstance(d, Mapping):
            raise ConfigError(f"config root must be an object, got {type(d).__name__}")
        try:
            opt = d["option"]
            option = OptionSpec(
                strike=_number(opt["strike"], "strike"),
                expiry=_number(opt["expiry"], "expiry"),
                rate=_number(opt.get("rate", 0.0), "rate"),
                sigma=_number(opt["sigma"], "sigma"),
                kind=str(opt.get("kind", "put")),
            )
        except KeyError as exc:
            raise ConfigError(f"option section is missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid option section: {exc}") from exc

        model = model_from_dict(d.get("model"))

        g = _object(d, "grid")
        try:
            grid = GridSpec(
                half_width=_number(g.get("half_width", 4.0), "half_width"),
                n_space=_count(g.get("n_space", 400), "n_space"),
                n_time=_count(g.get("n_time", 200), "n_time"),
                z_max=None if g.get("z_max") is None else _number(g["z_max"], "z_max"),
                delta=None if g.get("delta") is None else _number(g["delta"], "delta"),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"inconsistent grid: {exc}") from exc

        style = str(d.get("style", "european"))
        if style not in ("european", "american"):
            raise ConfigError(f"style must be 'european' or 'american', got {style!r}")

        penalty = None
        if d.get("penalty") is not None:
            p = _object(d, "penalty")
            tol = p.get("picard_tol")
            try:
                penalty = PenaltyConfig(
                    epsilon=_number(p.get("epsilon", 1e-3), "epsilon"),
                    max_picard=_count(p.get("max_picard", 50), "max_picard"),
                    picard_tol=None if tol is None else _number(tol, "picard_tol"),
                )
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"invalid penalty section: {exc}") from exc

        outputs = []
        for o in _list(d, "outputs"):
            try:
                outputs.append(OutputSpec(kind=str(o["kind"]), path=str(o["path"])))
            except (KeyError, TypeError) as exc:
                raise ConfigError(f"each output needs 'kind' and 'path': {o!r}") from exc

        scenarios = []
        for s in _list(d, "scenarios"):
            try:
                scenarios.append(
                    Scenario(
                        rate=_number(s["rate"], "scenario rate"),
                        spots=tuple(_number(x, "spot") for x in s["spots"]),
                    )
                )
            except ConfigError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"each scenario needs 'rate' and 'spots': {s!r}") from exc

        closed_form = d.get("closed_form", False)
        if not isinstance(closed_form, bool):
            raise ConfigError(f"closed_form must be true or false, got {closed_form!r}")

        cfg = cls(
            option=option,
            model=model,
            grid=grid,
            style=style,
            penalty=penalty,
            outputs=tuple(outputs),
            scenarios=tuple(scenarios),
            closed_form=closed_form,
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
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
    """Refuse an output path whose directory is missing or read-only."""
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


def _solve_jobs(jobs: list[_Job], keep_levels: bool) -> list[PriceSurface | Exception | None]:
    """Plan the jobs on the main thread (_plan), then march them on one
    thread pool in batches of one (Lockstep.key, step hook): an American
    job's penalty sweep is its own, so it marches alone.  A batch's jobs
    split into as many marches as the pool has threads, at most one per CPU:
    more marches than CPUs would only trade the GIL more often."""
    cap = _max_workers()
    limit = _cpu_count() if cap is None else min(cap, _cpu_count())
    outcomes = [None] * len(jobs)
    rows: dict[int, ImexOperators] = {}
    batches: dict[tuple, list[int]] = {}
    for i, job in enumerate(jobs):
        if job.model is None:
            continue
        try:
            rows[i], sweep = _plan(job)
        except _FAILURES as exc:
            outcomes[i] = exc
            continue
        batches.setdefault((Lockstep.key(rows[i]), sweep), []).append(i)
    # contiguous runs in job order, whose sizes differ by at most one
    tasks = [
        (chunk.tolist(), sweep)
        for (_, sweep), members in batches.items()
        for chunk in np.array_split(members, min(len(members), limit))
    ]
    tasks.sort(key=lambda task: task[0][0])
    with ThreadPoolExecutor(max_workers=cap) as pool:
        futures = [
            (idx, pool.submit(_march_task, [rows[i] for i in idx], solve, keep_levels))
            for idx, solve in tasks
        ]
        for idx, future in futures:
            for i, out in zip(idx, future.result()):
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
    first failing job, before any file is written; 1 on a write error."""
    keep_levels = any(o.kind in ("surface", "boundary") for o in outputs)
    outcomes = _solve_jobs(jobs, keep_levels)
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
        for sc in _list(d, "scenarios"):
            if isinstance(sc, Mapping):
                sc = {**sc, "rate": args.rate}
            if sc not in deduped:
                deduped.append(sc)
        d["scenarios"] = deduped
    if getattr(args, "grid_n", None) is not None:
        d["grid"] = {**_object(d, "grid"), "n_space": args.grid_n}
    if getattr(args, "grid_m", None) is not None:
        d["grid"] = {**_object(d, "grid"), "n_time": args.grid_m}
    if getattr(args, "epsilon", None) is not None:
        d["penalty"] = {**_object(d, "penalty"), "epsilon": args.epsilon}
    if getattr(args, "closed_form", False):
        d["closed_form"] = True
    if getattr(args, "output", None) is not None:
        outputs = [
            o
            for o in _list(d, "outputs")
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
    try:
        grid = GridSpec(
            n_space=400 if args.grid_n is None else args.grid_n,
            n_time=200 if args.grid_m is None else args.grid_m,
        )
        if args.output:
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
    outputs = [OutputSpec(kind="table", path=args.output)] if args.output else []
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
