"""Measurement, tracing and reporting behind run.py.

Imported by run.py only after it has pinned the thread counts and put
the checkout's ``src/`` first on the path, so numpy and the package load
under those settings.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

import modecascade as mc
import modecascade.cli
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
LADDER = (4, 6, 8, 12, 16, 24)
NPROC = os.cpu_count() or 1

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"))

# per-layer metric -> (span, "self" seconds or "calls"); the rest of
# PER_LAYER is computed in run_traced
SPAN_METRICS = {
    "spectral.nonlinear.calls": ("spectral.nonlinear", "calls"),
    "spectral.nonlinear.self_s": ("spectral.nonlinear", "self"),
    "integrator.integrate.calls": ("integrator.integrate", "calls"),
    "integrator.integrate.self_s": ("integrator.integrate", "self"),
    "integrator.steps": ("integrator.rk4", "calls"),
    "integrator.rk4.self_s": ("integrator.rk4", "self"),
    "integrator.blowup_guard.self_s": ("integrator.blowup_guard", "self"),
    "forcing.segment_eval.calls": ("forcing.segment_eval", "calls"),
    "forcing.segment_eval.self_s": ("forcing.segment_eval", "self"),
    "forcing.channel_primitive.calls": ("forcing.channel_primitive", "calls"),
    "forcing.channel_primitive.self_s": ("forcing.channel_primitive", "self"),
    "forcing.chattering.self_s": ("forcing.chattering", "self"),
    "forcing.relaxation_distance.calls": ("forcing.relaxation_distance", "calls"),
    "forcing.relaxation_distance.self_s": ("forcing.relaxation_distance", "self"),
    "lattice.saturation_chain.calls": ("lattice.saturation_chain", "calls"),
    "lattice.saturation_chain.self_s": ("lattice.saturation_chain", "self"),
    "lattice.next_level.calls": ("lattice.next_level", "calls"),
    "lattice.next_level.self_s": ("lattice.next_level", "self"),
    "lattice.find_generating_pair.calls": ("lattice.find_generating_pair", "calls"),
    "steering.steer.self_s": ("steering.steer", "self"),
    "steering.synthesis.self_s": ("steering.synthesis", "self"),
    "steering.cascade.self_s": ("steering.cascade", "self"),
    "steering.tail_growth.self_s": ("steering.tail_growth", "self"),
    "bench.loop.self_s": ("bench.loop", "self"),
}

PER_LAYER = (
    ("spectral.nonlinear.calls", "count"),
    ("spectral.nonlinear.self_s", "s"),
    *(("spectral.nonlinear.us_per_call.R%d" % r, "us") for r in LADDER),
    *(("spectral.triads.R%d" % r, "count") for r in LADDER),
    *(("spectral.nonlinear.computed_bytes.R%d" % r, "B") for r in LADDER),
    *(("spectral.tables.build_s.R%d" % r, "s") for r in LADDER),
    ("integrator.integrate.calls", "count"),
    ("integrator.integrate.self_s", "s"),
    ("integrator.steps", "count"),
    ("integrator.us_per_step", "us"),
    ("integrator.rk4.self_s", "s"),
    ("integrator.blowup_guard.self_s", "s"),
    ("forcing.segment_eval.calls", "count"),
    ("forcing.segment_eval.self_s", "s"),
    ("forcing.channel_primitive.calls", "count"),
    ("forcing.channel_primitive.self_s", "s"),
    ("forcing.chattering.self_s", "s"),
    ("forcing.relaxation_distance.calls", "count"),
    ("forcing.relaxation_distance.self_s", "s"),
    ("lattice.saturation_chain.calls", "count"),
    ("lattice.saturation_chain.self_s", "s"),
    ("lattice.next_level.calls", "count"),
    ("lattice.next_level.self_s", "s"),
    ("lattice.find_generating_pair.calls", "count"),
    ("steering.steer.self_s", "s"),
    ("steering.fp_iterations", "count"),
    ("steering.converged_ratio", "ratio"),
    ("steering.synthesis.self_s", "s"),
    ("steering.cascade.self_s", "s"),
    ("steering.tail_growth.self_s", "s"),
    ("cli.cover.overhead_s", "s"),
    ("bench.loop.self_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_s", "s"),
)


def git_commit() -> str:
    """Commit of the checkout, read from .git; "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "modecascade": mc.__version__,
        "commit": git_commit(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def time_setup(name: str, seed: int) -> float:
    """Seconds from a fresh interpreter to the workload's prepared state:
    interpreter start, package import and the workload's setup.

    The wait has no timeout: with one, ``subprocess`` polls the child
    every 50 ms and the figure comes out in 50 ms steps.
    """
    code = ("import sys; sys.path[:0] = %r; import workloads; workloads.WORKLOADS[%r](%d).setup()"
            % ([str(SRC), str(HERE)], name, seed))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure(wl, ctx, seconds: float | None = None, count: int | None = None):
    """Closed loop, one operation at a time: ``count`` operations, or as
    many as start within ``seconds`` (at least one)."""
    clock = time.perf_counter
    wl.restart(ctx)
    outputs, latencies = [], []
    start = clock()

    def more():
        if count is not None:
            return len(outputs) < count
        return not outputs or clock() - start < seconds

    while more():
        inp = wl.inputs(ctx, len(outputs))
        t0 = clock()
        outputs.append(wl.op(ctx, inp))
        latencies.append(clock() - t0)
    return outputs, latencies, clock() - start


def clear_package_caches():
    for mod in tracing.package_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def table_bytes(radius: int) -> int:
    """Bytes of the arrays the package keeps per radius for the quadratic
    term, all read on every call (computed from array sizes); 0 when the
    package keeps no such tables."""
    tables = getattr(sys.modules["modecascade.spectral"], "_tables", None)
    if tables is None:
        return 0
    return sum(v.nbytes for v in vars(tables(radius)).values() if isinstance(v, np.ndarray))


def kernel_ladder(seed: int):
    """``nonlinear_term`` timed at fixed radii; the first call after a cache
    clear, minus a steady call, is the radius's set-up (table build)."""
    clock = time.perf_counter
    metrics, checks = {}, []
    for radius in LADDER:
        clear_package_caches()
        t0 = clock()
        state = mc.random_decaying_state(radius, rng=np.random.default_rng([seed, radius]))
        mc.nonlinear_term(state)
        first = clock() - t0
        times = []
        while len(times) < 5 or sum(times) < 0.2:
            t0 = clock()
            mc.nonlinear_term(state)
            times.append(clock() - t0)
        per_call = statistics.median(times)
        metrics["spectral.nonlinear.us_per_call.R%d" % radius] = per_call * 1e6
        metrics["spectral.tables.build_s.R%d" % radius] = max(first - per_call, 0.0)
        metrics["spectral.triads.R%d" % radius] = reference.triad_count(radius)
        metrics["spectral.nonlinear.computed_bytes.R%d" % radius] = table_bytes(radius)
        checks.append(workloads.kernel_check(state))
    return metrics, checks


def cli_cover_overhead():
    """One coverage scan through ``modecascade.cli.main``: the call's span
    minus its coverage_check child."""
    workdir = HERE / ".runs" / ("cli-%d" % os.getpid())
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "k1.txt").write_text("1 0\n1 1\n-1 0\n-1 -1\n")
        config = {"mode_set": str(workdir / "k1.txt"), "radius": 4, "nu": 0.01, "tau": 0.02,
                  "fp_tol": 1e-3, "max_fp_iters": 10, "dt_base": 5e-4, "record_stride": 10,
                  "target_radius": 0.25, "grid_density": 2, "output_dir": str(workdir / "out")}
        (workdir / "cover.json").write_text(json.dumps(config))
        tracer = tracing.Tracer()
        with tracing.installed(tracer), contextlib.redirect_stdout(io.StringIO()):
            code = modecascade.cli.main(["cover", "--config", str(workdir / "cover.json")])
        fraction = json.loads((workdir / "out" / "coverage.json").read_text())["fraction"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    overhead = tracer.total.get("cli.main", 0.0) - tracer.total.get("steering.coverage", 0.0)
    return overhead, [("cli cover scan exits 0 and reaches every target",
                       code == 0 and fraction == 1.0)]


def run_untraced(wl, ctx, args, setup):
    outputs, latencies, wall = measure(wl, ctx, args.seconds)
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": len(outputs) / wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
    }
    samples = {"setup_s": len(setup), "peak_rss_mb": 1,
               "ops_per_s": len(outputs), "op_p50_ms": len(latencies)}
    lines = ["%s: %s = %.6g %s (n=%d, op = one %s)" % (wl.name, key, metrics[key], unit,
                                                       samples[key], wl.op_unit)
             for key, unit in END_TO_END]
    return outputs, latencies, wall, metrics, [], lines


def run_traced(wl, ctx, args):
    """Half of the run untraced, then the same operations traced."""
    outputs, latencies, wall = measure(wl, ctx, args.seconds / 2)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced, _, traced_wall = tracer.call("bench.loop", measure, wl, ctx,
                                             count=len(outputs))
    checks = wl.checks(ctx, traced)
    self_sum = tracer.self_sum()
    checks.append(("layer self times add up to the traced wall time (%.4f s of %.4f s)"
                   % (self_sum, traced_wall), abs(self_sum - traced_wall) <= 0.01 * traced_wall))
    metrics = {key: float(getattr(tracer, "self_time" if kind == "self" else "calls")
                          .get(span, 0))
               for key, (span, kind) in SPAN_METRICS.items()}
    steps = tracer.calls.get("integrator.rk4", 0)
    metrics["integrator.us_per_step"] = \
        tracer.total.get("integrator.integrate", 0.0) / steps * 1e6 if steps else 0.0
    metrics.update({"steering.fp_iterations": 0, "steering.converged_ratio": 0.0})
    metrics.update(wl.counts(traced))
    metrics.update({"trace.untraced_wall_s": wall, "trace.traced_wall_s": traced_wall,
                    "trace.overhead_s": traced_wall - wall, "trace.self_sum_s": self_sum})
    ladder, ladder_checks = kernel_ladder(args.seed)
    metrics.update(ladder)
    metrics["cli.cover.overhead_s"], cli_checks = cli_cover_overhead()
    lines = ["%s: tracing overhead %.4f s on %.4f s untraced (%.1f%%), %d operations%s"
             % (wl.name, traced_wall - wall, wall, 100.0 * (traced_wall - wall) / wall,
                len(outputs), "; spans not found: " + ", ".join(tracer.missing)
                if tracer.missing else "")]
    lines += ["%s: %s = %.6g %s" % (wl.name, key, metrics[key], unit) for key, unit in PER_LAYER]
    return outputs, latencies, wall, metrics, checks + ladder_checks + cli_checks, lines


def run_workload(name: str, args):
    """Returns (checks, end-to-end or per-layer metrics, report lines)."""
    wl = workloads.WORKLOADS[name](args.seed)
    setup = [] if args.trace else [time_setup(name, args.seed) for _ in range(SETUP_REPEATS)]
    ctx = wl.setup()
    outputs, latencies, wall, metrics, checks, tail = \
        run_traced(wl, ctx, args) if args.trace else run_untraced(wl, ctx, args, setup)
    checks = wl.checks(ctx, outputs) + checks
    checks.append(("python threads within nproc", threading.active_count() <= NPROC))
    lines = ["%s: %s = %.6g %s (n=%d)" % (name, key, value, unit, n)
             for key, (value, unit, n) in wl.metrics(ctx, outputs, latencies, wall).items()]
    lines += tail
    failed = [label for label, ok in checks if not ok]
    lines.append("%s: error_rate = %.6g (%d of %d checks failed)"
                 % (name, len(failed) / len(checks), len(failed), len(checks)))
    lines += ["%s: FAILED %s" % (name, label) for label in failed]
    return checks, metrics, lines


def main(args) -> int:
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    units = dict(PER_LAYER if args.trace else END_TO_END)
    attempted = failed = 0
    metrics = {}
    for name in names:
        checks, values, lines = run_workload(name, args)
        print("\n".join(lines), flush=True)
        attempted += len(checks)
        failed += sum(not ok for _, ok in checks)
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + key: {"value": values[key], "unit": units[key]}
                        for key in units})
    print("env: " + json.dumps(environment(args), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
