"""Span tracing for the benchmark's traced run.

Wrappers are installed on public names of the levypide modules, so the
program itself is unchanged.  A wrapper records one span per call: id, name,
start, end, parent span and call id.  Spans are kept in memory, one list per
thread, and are turned into per-layer figures after each traced pass.

A span that starts with an empty stack on the main thread is a call: the
benchmark made it through a public entry point.  A span that starts with an
empty stack on another thread (a worker of the CLI's thread pool) takes the
current call's root span as its parent, so job spans are children of the
`cli.main` span that submitted them.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time

# (module, attribute, span name).  A dotted attribute names a method on a
# class.  The same function is wrapped at each module that imports it, since
# callers look it up in their own module's namespace.
BINDINGS = (
    ("levypide.cli", "main", "cli.main"),
    ("levypide.cli", "solve_european", "pide.solve"),
    ("levypide.cli", "solve_american_penalized", "american.solve"),
    ("levypide.cli", "extract_boundary", "american.extract_boundary"),
    ("levypide.cli", "bs_price", "bs.closed_form"),
    ("levypide.cli", "integrability_check", "levy.checks"),
    ("levypide.cli", "structural_condition_check", "levy.checks"),
    ("levypide.pide", "solve_european", "pide.solve"),
    ("levypide.pide", "step_imex", "pide.step"),
    ("levypide.pide", "solve_banded", "pide.tridiag"),
    ("levypide.pide", "IntegralOperator.apply", "pide.jump_apply"),
    ("levypide.pide", "assemble_integral_operator", "pide.assemble"),
    ("levypide.pide", "integrability_check", "levy.checks"),
    ("levypide.pide", "density", "levy.density"),
    ("levypide.american", "integrability_check", "levy.checks"),
    ("levypide.american", "structural_condition_check", "levy.checks"),
    ("levypide.oracle", "merton_series_price", "oracle.series"),
    ("levypide.oracle", "mc_price", "oracle.mc"),
    ("levypide.bs", "bs_price", "bs.closed_form"),
)

# Names of the spans that are pricing jobs, for the pool's busy share.
JOB_SPANS = ("pide.solve", "american.solve")


# Unit of each per-layer figure.
UNITS = {
    "pide.jump_apply_s": "s",
    "pide.jump_apply_calls": "count",
    "pide.jump_apply_flops_computed": "flop",
    "pide.jump_apply_bytes_computed": "B",
    "pide.tridiag_s": "s",
    "pide.tridiag_calls": "count",
    "pide.step_self_s": "s",
    "pide.assemble_s": "s",
    "levy.checks_s": "s",
    "levy.checks_calls": "count",
    "levy.density_s": "s",
    "american.sweeps_per_step": "1",
    "american.solve_self_s": "s",
    "american.extract_boundary_s": "s",
    "cli.self_s": "s",
    "cli.pool_busy_share": "1",
    "oracle.series_s": "s",
    "oracle.mc_paths_per_s": "1/s",
    "bs.closed_form_s": "s",
}


def _jump_apply_size(args, kwargs) -> tuple[int, int]:
    """(N+1 nodes, J largest offset) of an IntegralOperator.apply call."""
    op, u = args[0], args[1] if len(args) > 1 else kwargs["u"]
    return u.size, int(op.offsets.max()) if op.offsets.size else 0


def _mc_paths(args, kwargs) -> tuple[int, int]:
    mc = args[3] if len(args) > 3 else kwargs.get("mc")
    return (mc.n_paths if mc is not None else 100_000), 0  # McConfig's default


# Span names whose spans carry a size, and how to read it from the call.
_SIZE = {"pide.jump_apply": _jump_apply_size, "oracle.mc": _mc_paths}


class Tracer:
    """In-memory span store with per-thread stacks and span lists."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lists: list[list[tuple]] = []
        self._lists_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self.root: int | None = None
        self.call_id = 0
        self.installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _thread_state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.spans = []
            with self._lists_lock:
                self._lists.append(st.spans)
        return st

    def wrap(self, fn, name: str):
        size = _SIZE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._thread_state()
            sid = next(self._ids)
            if st.stack:
                parent = st.stack[-1]
            elif threading.current_thread() is self._main:
                parent = None
                self.call_id += 1
                self.root = sid
            else:
                parent = self.root
            call = self.call_id
            extra = size(args, kwargs) if size is not None else (0, 0)
            st.stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.stack.pop()
                st.spans.append((sid, name, t0, t1, parent, call, extra))

        return traced

    def install(self) -> None:
        """Wrap every binding that exists; record the others as absent."""
        self.absent = []
        for mod_name, attr, span in BINDINGS:
            try:
                owner = importlib.import_module(mod_name)
            except ImportError:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(original, span))
            self.installed.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self.installed):
            setattr(owner, leaf, original)
        self.installed = []

    def drain(self) -> list[tuple]:
        """Take every span recorded so far, sorted by start time."""
        with self._lists_lock:
            spans = [s for lst in self._lists for s in lst]
            for lst in self._lists:
                lst.clear()
        spans.sort(key=lambda s: s[2])
        return spans


def _covered(t0: float, t1: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [t0, t1] covered by the union of intervals."""
    total = 0.0
    end = t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    return {
        sid: (t1 - t0) - _covered(t0, t1, children.get(sid, []))
        for sid, _, t0, t1, _, _, _ in spans
    }


def layer_figures(spans: list[tuple], workers: int) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)

    def under(span, name: str) -> bool:
        parent = span[4]
        while parent is not None:
            p = by_id.get(parent)
            if p is None:
                return False
            if p[1] == name:
                return True
            parent = p[4]
        return False

    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        name = s[1]
        dur[name] = dur.get(name, 0.0) + (s[3] - s[2])
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[s[0]]

    am_sweeps = sum(1 for s in spans if s[1] == "pide.tridiag" and under(s, "american.solve"))
    am_steps = sum(1 for s in spans if s[1] == "pide.jump_apply" and under(s, "american.solve"))
    cli_ids = {s[0] for s in spans if s[1] == "cli.main"}
    job_s = sum(s[3] - s[2] for s in spans if s[1] in JOB_SPANS and s[4] in cli_ids)
    cli_wall = dur.get("cli.main", 0.0)
    # The correlation in one apply: 2 (N+1) (2J+1) flops; float64 bytes of
    # the padded input (N+1+2J), the kernel (2J+1) and the output (N+1).
    applies = [s[6] for s in spans if s[1] == "pide.jump_apply" and s[6][1]]
    flops = sum(2 * n * (2 * j + 1) for n, j in applies)
    nbytes = sum(8 * ((n + 2 * j) + (2 * j + 1) + n) for n, j in applies)
    mc_paths = sum(s[6][0] for s in spans if s[1] == "oracle.mc")
    mc_s = dur.get("oracle.mc", 0.0)
    return {
        "pide.jump_apply_s": dur.get("pide.jump_apply", 0.0),
        "pide.jump_apply_calls": calls.get("pide.jump_apply", 0),
        "pide.jump_apply_flops_computed": flops,
        "pide.jump_apply_bytes_computed": nbytes,
        "pide.tridiag_s": dur.get("pide.tridiag", 0.0),
        "pide.tridiag_calls": calls.get("pide.tridiag", 0),
        "pide.step_self_s": self_s.get("pide.step", 0.0),
        "pide.assemble_s": dur.get("pide.assemble", 0.0),
        "levy.checks_s": dur.get("levy.checks", 0.0),
        "levy.checks_calls": calls.get("levy.checks", 0),
        "levy.density_s": dur.get("levy.density", 0.0),
        "american.sweeps_per_step": am_sweeps / am_steps if am_steps else 0.0,
        "american.solve_self_s": self_s.get("american.solve", 0.0),
        "american.extract_boundary_s": dur.get("american.extract_boundary", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.pool_busy_share": job_s / (workers * cli_wall) if cli_wall else 0.0,
        "oracle.series_s": dur.get("oracle.series", 0.0),
        "oracle.mc_paths_per_s": mc_paths / mc_s if mc_s else 0.0,
        "bs.closed_form_s": dur.get("bs.closed_form", 0.0),
    }

