#!/usr/bin/env python3
"""splr benchmark: four seeded workloads through splr's public API.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {sweep,relaxed,decompose,certify}
                             --seed N --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics: set-up time (median of several
set-ups, each in a fresh interpreter), then ops for S seconds, each checked
against the paper's guarantees, with a speed probe on a timer. --trace 1
runs a fixed number of ops once untraced and once traced, and reports the
per-layer metrics (the op count is fixed so that call counts repeat
exactly). Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.

BLAS runs single-threaded so that runs on a shared machine stay steady.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from tracing import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

SETUP_REPEATS = 9
# A fresh interpreter that imports numpy, prints its ready time and exits:
# the start-up part of every set-up, timed next to each one.
STARTUP_PROBE = (sys.executable, "-c", "import time, numpy; print(time.perf_counter())")
# setup_s is reported at the machine speed where STARTUP_PROBE takes this.
STARTUP_REF_S = 0.12
JOBS = 2

END_TO_END = (
    ("setup_s", "s"),
    ("op_cost_probes", "probe"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, fnames in LAYERS.items():
        for fname in fnames:
            q = f"{layer}.{fname}"
            if layer not in ("sweep", "cli"):
                out.append((f"{q}.calls", "count"))
            out.append((f"{q}.self_s", "s"))
            if q == "matrices.thin_svd":
                out.append((f"{q}.gflop_computed", "GFLOP"))
            if layer == "matrixio":
                out.append((f"{q}.bytes", "B"))
        if layer == "solvers":
            out += [("solvers.iterations", "count"),
                    ("solvers.dykstra_iterations", "count"),
                    ("solvers.s_per_iter", "s"),
                    ("solvers.converged_ratio", "ratio")]
        if layer == "sweep":
            out += [("sweep.success_ratio", "ratio"),
                    ("sweep.jobs2_speedup", "ratio")]
    out.append(("trace.overhead_frac", "ratio"))
    return out


# ---------------------------------------------------------------------------
# Running ops.

@dataclass
class Batch:
    latencies: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    failed: int = 0
    wall: float = 0.0
    notes: dict = field(default_factory=dict)


class SpeedProbe:
    """A fixed kernel that stands in for a workload's mix of work.

    On the machine this benchmark was built on, the same code runs at a
    speed that changes by a common factor from second to second and drifts
    over minutes. Timed runs therefore run the probe on a wall-clock timer
    (about 4% of the time) and report the mean op time in units of the
    mean probe time, next to the raw seconds. The timer fires in the
    middle of an op as readily as between ops, so a run of a few
    seconds-long ops is sampled while they run, not only between them.
    "small" mixes small LAPACK SVDs, elementwise numpy on small arrays and
    interpreted Python, like the 20x20 to 60x60 workloads; "large" is a
    240x240 SVD plus formatting and parsing floats, like a decompose round
    trip.
    """

    def __init__(self, kind):
        rng = np.random.default_rng(0)
        if kind == "small":
            self.A = rng.standard_normal((40, 40))
            self.every_s = 0.05
            self.kernel = self._small
        elif kind == "large":
            self.A = rng.standard_normal((240, 240))
            self.every_s = 0.6
            self.kernel = self._large
        else:
            raise ValueError(f"unknown probe kind {kind!r}")

    def _small(self):
        A = self.A
        for _ in range(4):
            np.linalg.svd(A, full_matrices=False)
        for _ in range(60):
            np.sign(A) * np.maximum(np.abs(A) - 0.1, 0.0)
        total = 0
        for i in range(5000):
            total += i

    def _large(self):
        np.linalg.svd(self.A, full_matrices=False)
        text = ",".join(repr(float(x)) for x in self.A[:10].ravel())
        sum(float(x) for x in text.split(","))

    def __call__(self):
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def start(self):
        """Run the kernel every `every_s` seconds of wall time, in between
        the main thread's bytecodes, until stop(). `times` collects each
        call's duration and `spent` their sum, so a caller can take probe
        time out of what it timed."""
        self.times = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)

    def _tick(self, signum, frame):
        t = self()
        self.times.append(t)
        self.spent += t

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_ops(ops, seconds=None, count=None, tracer=None, probe=None):
    """Run ops in order, either exactly `count` of them or whole passes over
    all of them for about `seconds`: the run stops at the pass boundary
    nearest to `seconds`, and after one pass at least, so every run
    measures each op the same number of times. Only the op call is timed,
    less any speed probe that ran inside it; its check runs afterwards."""
    batch = Batch()
    clock = time.perf_counter
    if probe is not None:
        probe.start()
    t_start = pass_start = clock()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i and i % len(ops) == 0:
            now = clock()
            if now + (now - pass_start) / 2 >= t_start + seconds:
                break
            pass_start = now
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
        error = None
        before = probe.spent if probe else 0.0
        t0 = clock()
        try:
            result = op.run()
        except Exception as exc:  # a failed op is counted, the run goes on
            error = exc
        t1 = clock()
        batch.latencies.append(t1 - t0 - (probe.spent - before if probe else 0.0))
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            error = f"raised {type(error).__name__}: {error}"
        else:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            if op.note is not None:
                name, value = op.note(result)
                batch.notes[name] = max(value, batch.notes.get(name, value))
        if error:
            batch.failed += 1
            print(f"FAIL {op.label}: {error}", file=sys.stderr)
        i += 1
    if probe is not None:
        probe.stop()
        batch.probes = probe.times
    batch.wall = clock() - t_start
    return batch


def time_child(argv):
    """Seconds from starting argv until it prints its ready time. Parent
    and child read the same monotonic clock."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1]) - t0


def measure_setup(workload, seed, base):
    """Set-up time: seconds from starting a fresh interpreter until its
    first op is ready (splr imported, inputs generated, CSVs written),
    SETUP_REPEATS times.

    Returns (raw seconds, seconds scaled to a machine on which STARTUP_PROBE
    takes STARTUP_REF_S). Each set-up is scaled by the mean of the start-up
    probes timed just before and just after it: on a shared machine, the
    speed of starting an interpreter and importing modules swings by up to
    50% for seconds at a time, and both sides of the ratio swing together.
    """
    raw, scaled = [], []
    before = time_child(STARTUP_PROBE)
    for i in range(SETUP_REPEATS):
        workdir = os.path.join(base, f"setup{i}")
        os.makedirs(workdir)
        raw.append(time_child(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only", workdir]))
        after = time_child(STARTUP_PROBE)
        scaled.append(raw[-1] * STARTUP_REF_S / ((before + after) / 2))
        before = after
        shutil.rmtree(workdir)
    return raw, scaled


# ---------------------------------------------------------------------------
# Reporting.

def run_metadata():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    lapack = deps.get("lapack", {})
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "lapack": f"{lapack.get('name', '?')} {lapack.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
    }


def blas_threads():
    """Thread count OpenBLAS reports, or the environment setting when the
    library cannot be queried."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def print_metric(workload, name, value, unit, samples):
    print(f"{workload:9s} {name:42s} {value:14.6g} {unit:6s} (n={samples})")


def timed_result(workload, seed, seconds, workdir):
    setup_raw, setup_scaled = measure_setup(workload.name, seed, workdir)
    ops = workload.setup(seed, workdir)
    probe = SpeedProbe(workload.probe)
    probe()  # warm up
    batch = run_ops(ops, seconds=seconds, probe=probe)
    lat = batch.latencies
    n = len(lat)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), SETUP_REPEATS),
        "op_cost_probes": (statistics.fmean(lat) / statistics.fmean(batch.probes), n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    units = dict(END_TO_END)
    for name, (value, samples) in metrics.items():
        print_metric(workload.name, name, value, units[name], samples)
    # Reported but not gated in BENCHMARK.json: see perfbench/README.md.
    print_metric(workload.name, "setup_raw_s", statistics.median(setup_raw), "s", SETUP_REPEATS)
    print_metric(workload.name, "ops_per_s", n / sum(lat), "1/s", n)
    print_metric(workload.name, "op_p50_s", statistics.median(lat), "s", n)
    if n >= 100:
        print_metric(workload.name, "op_p90_s", statistics.quantiles(lat, n=10)[8], "s", n)
    print_metric(workload.name, "fail_frac", batch.failed / n, "ratio", n)
    for name, value in batch.notes.items():
        print_metric(workload.name, f"{name} (max, informational)", value, "ratio", n)
    return n, batch.failed, {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()}


def traced_result(workload, seed, workdir):
    import splr
    import workloads

    ops = workload.setup(seed, workdir)
    count = workload.traced_ops
    plain = run_ops(ops, count=count)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(ops, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    for q in tracer.missing:
        print(f"note: {q} not found in splr; its metrics read 0", file=sys.stderr)

    speedup = 0.0
    if workload.name == "sweep":
        spec = workloads.sweep_grid_spec(seed % workloads.SWEEP_SETS)
        t0 = time.perf_counter()
        rows1, _ = splr.run_sweep(spec, jobs=1)
        t1 = time.perf_counter()
        rows2, _ = splr.run_sweep(spec, jobs=JOBS)
        t2 = time.perf_counter()
        if rows1 != rows2:
            raise RuntimeError(f"run_sweep rows differ between jobs=1 and jobs={JOBS}")
        speedup = (t1 - t0) / (t2 - t1)

    spans = tracer.per_name()
    c = tracer.counts
    solve_calls = solve_time = 0.0
    values = {}
    for q, (calls, self_s, inclusive) in spans.items():
        values[f"{q}.calls"] = calls
        values[f"{q}.self_s"] = self_s
        if q.startswith("solvers.solve_"):
            solve_time += inclusive
    values["matrices.thin_svd.gflop_computed"] = c["thin_svd_gflop"]
    values["matrixio.read_matrix_csv.bytes"] = c["read_bytes"]
    values["matrixio.write_matrix_csv.bytes"] = c["write_bytes"]
    values["solvers.iterations"] = c["iterations"]
    values["solvers.dykstra_iterations"] = c["dykstra_iterations"]
    values["solvers.s_per_iter"] = solve_time / c["iterations"] if c["iterations"] else 0.0
    values["solvers.converged_ratio"] = (
        c["solves_converged"] / c["solves"] if c["solves"] else 0.0)
    values["sweep.success_ratio"] = c["trials"] and c["trial_successes"] / c["trials"]
    values["sweep.jobs2_speedup"] = speedup
    values["trace.overhead_frac"] = traced.wall / plain.wall - 1.0

    metrics = {}
    for name, unit in per_layer_metrics():
        value = values.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        print_metric(workload.name, name, value, unit, count)
    tracer.write(os.path.join(OUT, f"trace-{workload.name}-seed{seed}.npz"))
    attempted = len(plain.latencies) + len(traced.latencies)
    return attempted, plain.failed + traced.failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="set up in DIR, print the ready time and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "splr", "__init__.py")):
        print(f"error: no splr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workload.setup(args.seed, args.setup_only)
        print(time.perf_counter())
        return 0

    workdir = os.path.join(OUT, f"run-{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            attempted, failed, metrics = traced_result(workload, args.seed, workdir)
        else:
            attempted, failed, metrics = timed_result(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"meta": run_metadata(), "workload": workload.name,
                      "why": workload.why, "seed": args.seed}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
