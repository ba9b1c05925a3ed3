"""levypide benchmark: one workload, measured for a fixed time, checked, and
reported as one JSON line.

    python3 perfbench/run.py --workload table1_fine --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src` directory.  Workloads (see workloads.py):

  table1_fine     levypide table1 at 3200 x 1600 on two pool workers
  american_strip  144 American `levypide price` calls in a closed loop
  merton_ladder   refinement ladders to a max error of 1e-3, Merton and no jumps

A run sets up, makes one short untimed warm-up pass, then repeats the
workload's pass until --seconds have gone by.  With --trace 0 the last line
holds the end-to-end metrics:

  setup_s       median of several fresh interpreters that import levypide and
                build the workload's inputs, then exit
  wall_s        median over passes of the time inside levypide calls
  solves_per_s  median over passes of successful PIDE solves per second
  job_ms_p50    median over all successful jobs: one CLI call on
                american_strip; on the other two a job is a whole pass
  mean_abs_err  mean absolute error against an independent oracle
  peak_rss_mb   peak resident memory of the process

With --trace 1 the last line holds the per-layer metrics of a traced run,
whose passes alternate with untraced ones so the tracing overhead can be
reported.  The spans of the last traced pass are written to
.perfbench_traces/.  Earlier lines, starting with '#', give the environment,
the workload's own figures (job_ms_p90, fail_share, max_abs_err,
time_to_tol_s, ...) and any gate failure.  job_ms_p90 is printed, not part of
the result: on this workload mix its tail is set by the host's noise (an
interquartile spread of 10-14 % of the median over ten seeds on a shared
2-core machine) more than by the program.

A numerical failure that the CLI reports with exit code 2 is a refusal: it
counts in fail_share, not as a failed operation.  An operation fails when the
gate rejects it: any other exit code, an exception, or a wrong output.

Passes repeat identical inputs in one process, while a CLI user starts a new
process per command: a cache that outlives a call would show here as a gain
that user never sees.
"""
from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy
import scipy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_WORKERS = 2
SETUP_PROBES = 9


def load_levypide() -> SimpleNamespace:
    """Import the package from the checkout's src, never from elsewhere."""
    if not (SRC / "levypide" / "__init__.py").is_file():
        raise SystemExit(f"error: no levypide source under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"levypide.{m}") for m in ("cli", "pide", "oracle", "bs", "levy")}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: levypide was imported from {mods['cli'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def time_setup(args) -> list[float]:
    """Fresh interpreter to the first timed call: run the set-up alone in a
    new process, several times."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return times


def write_spans(spans: list[tuple], path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        fh.write("id,name,start_s,end_s,parent,call,n,j\n")
        t_base = spans[0][2] if spans else 0.0
        for sid, name, t0, t1, parent, call, (n, j) in spans:
            fh.write(f"{sid},{name},{t0 - t_base:.9f},{t1 - t_base:.9f},{parent or ''},{call},{n},{j}\n")


def run(args, lp: SimpleNamespace) -> int:
    workers = min(MAX_WORKERS, nproc())
    os.environ["LEVYPIDE_WORKERS"] = str(workers)
    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](lp, args.seed, run_dir)
        if args.setup_only:
            return 0
        setup = [] if args.trace else time_setup(args)

        tracer = tracing.Tracer() if args.trace else None
        warm = wl.warm_up()
        # Keep the collector's full passes to what the timed calls allocate, as
        # in a fresh CLI process, not the benchmark's own set-up.
        gc.collect()
        gc.freeze()
        plain, traced = [], []
        deadline = time.perf_counter() + args.seconds
        k = 0
        while True:
            on = tracer is not None and k % 2 == 1
            if on:
                tracer.install()
            try:
                res = wl.run_pass()
            finally:
                if on:
                    tracer.uninstall()
            if on:
                spans = tracer.drain()
                res.layers = tracing.layer_figures(spans, workers)
            wl.check_pass(res)
            (traced if on else plain).append(res)
            k += 1
            if time.perf_counter() >= deadline and (tracer is None or k >= 2):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        final_errors = wl.final_checks()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    passes = [warm] + plain + traced
    errors = [e for p in passes for e in p.errors] + final_errors
    attempted = sum(p.attempted for p in passes)
    timed_attempted = sum(p.attempted for p in plain + traced)
    refused = sum(p.refused for p in plain + traced)
    # Each gate message names one operation, so a run cannot fail more than it attempted.
    failed = min(attempted, len(errors))
    jobs = [j for p in plain for j in p.jobs_ms]

    print(
        f"# env: nproc={nproc()} workers={workers} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__}"
    )
    print(
        f"# {args.workload}: seed={args.seed} passes={len(plain)} traced_passes={len(traced)} "
        f"attempted={attempted} refused={refused} failed={failed} job_samples={len(jobs)}"
    )
    print("# pass_wall_s: " + " ".join(f"{p.wall_s:.4f}" for p in plain))
    for e in errors[:20]:
        print(f"# gate: {e}", file=sys.stderr)

    wall = statistics.median(p.wall_s for p in plain)
    extra = {
        "job_ms_p90": (float(numpy.percentile(jobs, 90)) if jobs else float("nan"), "ms"),
        "fail_share": (refused / timed_attempted, "1"),
        "max_abs_err": (max(wl.oracle_errors, default=float("nan")), "price"),
    }
    for key, unit in (("time_to_tol_s", "s"), ("time_to_tol_bs_s", "s"), ("stop_n", "count"), ("stop_n_bs", "count")):
        if key in plain[0].extra:
            extra[key] = (statistics.median(p.extra[key] for p in plain), unit)
    for key, (value, unit) in extra.items():
        print(f"# {key} = {value!r} {unit}")

    if tracer is None:
        values = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "solves_per_s": (statistics.median(p.solves / p.wall_s for p in plain), "1/s"),
            "job_ms_p50": (float(numpy.percentile(jobs, 50)) if jobs else float("nan"), "ms"),
            "mean_abs_err": (
                statistics.fmean(wl.oracle_errors) if wl.oracle_errors else float("nan"), "price"
            ),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        layers = {
            name: statistics.median_low(p.layers[name] for p in traced) for name in traced[0].layers
        }
        values = {name: (value, tracing.UNITS[name]) for name, value in layers.items()}
        traced_wall = statistics.median(p.wall_s for p in traced)
        values["trace.wall_s"] = (traced_wall, "s")
        values["trace.overhead_s"] = (traced_wall - wall, "s")
        values["trace.absent_names"] = (len(tracer.absent), "count")
        for name in tracer.absent:
            print(f"# absent: {name} (its layer reads 0)")
        write_spans(spans, ROOT / ".perfbench_traces" / f"{args.workload}-seed{args.seed}.csv")

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    return run(args, load_levypide())


if __name__ == "__main__":
    sys.exit(main())
