"""Command-line front end: read run configurations, hand their pricing jobs
to the library's job pipeline, write price tables and plot-ready data files.

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

Every value is a number, except: n_space, n_time and max_picard are whole
numbers (400.0 reads as 400); kind, style, type and path are strings;
scenarios, spots and outputs are lists.  A null value reads as an absent
one, and an absent grid or penalty value takes GridSpec's or PenaltyConfig's
default.  Any other JSON type, a missing required field, or a key not listed
above (a misspelled key would otherwise read as an absent one), at the top
level or in a section, is a one-line ConfigError that names the field.

`price` makes one job per scenario and `table1` its eight built-in columns,
and both price them through jobs.price_jobs; a `price` job is always
marched on its grid, and only table1's bs_sigma columns, and plotdata's
V_bs reference for a jump model, take the closed form.  An American job's
structural warning is one `warning: <message>` line on stderr, in job
order.  The files are written after the last job, in job order, so
identical runs produce byte-identical outputs whatever the worker count.  A
job's error is a numerical failure (exit 2) that names the first failing
job, with nothing written; a bad command line, a bad LEVYPIDE_WORKERS and a
marching process that dies are one-line errors (exit 1).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import warnings
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .american import PenaltyConfig, StructuralWarning, extract_boundary
from .bs import OptionSpec, bs_price, payoff
from .jobs import Job, Priced, WorkerLostError, price_jobs
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
from .pide import GridSpec, PriceSurface, price_at

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
        for o in self.outputs:
            if o.kind not in _OUTPUT_KINDS:
                raise ConfigError(
                    f"unknown output kind {o.kind!r} (expected one of {', '.join(_OUTPUT_KINDS)})"
                )
            if o.kind == "boundary" and self.style != "american":
                raise ConfigError("boundary output requires style: american")
            if o.kind == "plotdata" and not (lo <= _PLOT_SPOTS[0] and _PLOT_SPOTS[-1] <= hi):
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
# the price table of price and table1


def _show_warning(show: Callable, message, category, *args, **kwargs) -> None:
    """A StructuralWarning as one `warning: <message>` line on stderr; any
    other warning as show writes it."""
    if issubclass(category, StructuralWarning):
        print(f"warning: {message}", file=sys.stderr)
    else:
        show(message, category, *args, **kwargs)


def _run_jobs(
    jobs: Mapping[str, Job],
    outputs: Sequence[OutputSpec],
    write_other: Callable[[OutputSpec, list[Priced]], None] | None = None,
) -> int:
    """Price the jobs, keyed by column name (jobs.price_jobs), then write the
    outputs in order: `table` outputs here, every other kind through
    write_other(output, outcomes).  Print the table last.  Every column
    shares the first job's payoff.  Surface and boundary outputs read every
    time level, the others t = 0's alone, so the marches keep every level
    only for those.  Exit 2 on a numerical failure, naming the first failing
    job, before any file is written; 1 on a write error, a bad
    LEVYPIDE_WORKERS or when a marching process dies."""
    keep_levels = any(o.kind in ("surface", "boundary") for o in outputs)
    try:
        with warnings.catch_warnings():
            # a line per job, also when two jobs share one, and under -W error
            warnings.simplefilter("always", StructuralWarning)
            warnings.showwarning = functools.partial(_show_warning, warnings.showwarning)
            outcomes = price_jobs(list(jobs.values()), keep_levels)
    except (ValueError, WorkerLostError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, out in zip(jobs, outcomes):
        if isinstance(out, Exception):
            print(f"numerical failure in {name}: {out}", file=sys.stderr)
            return 2
    columns = [
        dict(zip(job.spots, out.prices.tolist())) for job, out in zip(jobs.values(), outcomes)
    ]

    spots = list(dict.fromkeys(s for job in jobs.values() for s in job.spots))
    first = next(iter(jobs.values()))
    pay = [float(payoff(first.spec, s)) for s in spots]
    header = ["S", "payoff", *jobs]
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
    penalty = None
    if cfg.style == "american":
        penalty = cfg.penalty if cfg.penalty is not None else PenaltyConfig()
    jobs: dict[str, Job] = {}
    for sc in cfg.scenarios:
        name = f"V_r{sc.rate:g}"
        while name in jobs:
            name += "'"
        spec = dataclasses.replace(cfg.option, rate=sc.rate)
        jobs[name] = Job(spec, cfg.model, cfg.grid, sc.spots, penalty)

    def write_other(out: OutputSpec, outcomes: list[Priced]) -> None:
        label = _model_label(cfg.model)
        for job, (_, surface), dest in zip(jobs.values(), outcomes, cfg._files(out)):
            if out.kind == "surface":
                surface.to_csv(dest)
            elif out.kind == "boundary":
                extract_boundary(surface).to_csv(dest)
            else:
                cols: dict[str, object] = {}
                if label != "bs":
                    cols["bs"] = functools.partial(bs_price, job.spec)
                cols[label] = surface
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
    jobs = {
        f"{name}_r{r:g}": Job(
            dataclasses.replace(base, rate=r, sigma=sigma), model, grid, _TABLE1_SPOTS
        )
        for r in (0.0, 0.1)
        for name, sigma, model in (
            ("bs_sigma0.12", 0.12, None),
            ("bs_sigma0.23", 0.23, None),
            ("merton", 0.23, merton),
            ("vg", 0.23, vg),
        )
    }
    outputs = [] if args.output is None else [OutputSpec(kind="table", path=args.output)]
    return _run_jobs(jobs, outputs)


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError: one `error:` line, not
    argparse's usage and message."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    pc = sub.add_parser("check", help="run the measure checks for a config's model")
    pc.add_argument("--config", required=True, help="JSON run configuration")

    pt = sub.add_parser("table1", help="reproduce the benchmark price table")
    pt.add_argument("--output", help="also write the table as CSV")
    pt.add_argument("--grid-n", type=int, dest="grid_n", help="spatial intervals")
    pt.add_argument("--grid-m", type=int, dest="grid_m", help="time steps")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "price":
            return run(args.config, args)
        if args.command == "check":
            return check(args.config)
        return _run_table1(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit:
        return 0  # --help, which argparse printed


if __name__ == "__main__":
    sys.exit(main())
