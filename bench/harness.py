"""Closed-loop runner, statistics and environment record of the benchmark.

One client runs ops one after another; each op starts only after the
previous one finished and its output was checked.  Checks run outside the
timed region.  The loop stops once the ops have taken ``seconds`` of time.
The end-to-end times are reported at the reference machine speed of
``calibrate.py``; the raw wall times go to the run record.
"""

import gc
import glob
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass, field
from itertools import chain
from time import perf_counter

import numpy as np
import scipy

import calibrate
import entransfer
import spans
import workloads

OUT_DIR = ".bench_out"        # run records, spans and scratch files
SETUP_REPEATS = 7
TAIL_BEYOND = 10              # samples beyond the reported tail percentile
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "peak_rss_mb": "MB", "op_fail_frac": "ratio"}


@dataclass
class Loop:
    ops: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    failures: list = field(default_factory=list)     # (op index, kind, message)
    warnings: int = 0
    clock: calibrate.Clock | None = None    # set by run_loop

    def scaled(self):
        """Op latencies at the reference machine speed."""
        return [lat * self.clock.factor(t0, t0 + lat)
                for t0, lat in zip(self.starts, self.latencies)]

    @property
    def busy_s(self):
        return sum(self.latencies)


def execute(op, loop, tracer=None):
    """Run one op, time it, then check its output (untimed)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            result = op.run() if tracer is None else tracer.run_op(op.run)
            error = None
        except Exception as exc:    # an op that raises is a failed op
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        loop.warnings += len(caught)
        if error is None:
            try:
                op.check(result)
            except workloads.CheckFailed as exc:
                error = str(exc)
            except Exception as exc:    # an unreadable output fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
    loop.ops.append(op)
    loop.latencies.append(latency)
    loop.starts.append(t0)
    if error is not None:
        loop.failures.append((len(loop.ops) - 1, op.kind, error))


def next_op(ops, loop):
    """The next op; warnings raised while it is built count with the loop's."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        op = next(ops)
    loop.warnings += len(caught)
    return op


def run_loop(ops, seconds, kernel):
    """The timed loop, with a sample of the calibration kernel between ops
    every ``calibrate.PERIOD_S`` and one after the last op.  It ends with
    the first pass through the op schedule that completes after ``seconds``,
    so that every run measures whole passes and the same mix of ops."""
    loop = Loop(clock=calibrate.Clock(kernel))
    while True:
        op = next_op(ops, loop)
        if loop.busy_s >= seconds and op.cycle != loop.ops[-1].cycle:
            break
        loop.clock.tick()
        execute(op, loop)
    loop.clock.add(*calibrate.sample(kernel))
    return loop


def run_traced(ops, seconds, tracer, rng):
    """Run each op twice, untraced and traced, back to back in random order,
    so that drifts in machine speed fall on both sides of the tracing
    overhead."""
    plain, traced = Loop(), Loop()

    def run_traced_once(op):
        tracer.install()
        try:
            execute(op, traced, tracer)
        finally:
            tracer.uninstall()

    while plain.busy_s + traced.busy_s < seconds:
        op = next_op(ops, plain)
        traced_first = rng.random() < 0.5
        if traced_first:
            run_traced_once(op)
        execute(op, plain)
        if not traced_first:
            run_traced_once(op)
    return plain, traced


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, or the maximum if there are fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(loop, setup_s):
    """The end-to-end metrics from op latencies at the reference speed, and
    the same figures from the raw wall times."""
    n = len(loop.latencies)
    scaled = loop.scaled()
    value, pct, beyond = tail(scaled)
    raw_tail = tail(loop.latencies)[0]
    metrics = {
        "setup_s": setup_s["scaled"],
        "ops_per_s": (n - len(loop.failures)) / sum(scaled),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "op_tail_ms": 1e3 * value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_fail_frac": len(loop.failures) / n,
    }
    notes = {"op_tail_ms": f"p{pct:.4g}, {beyond} of {n} ops beyond",
             "op_fail_frac": f"{len(loop.failures)} of {n} ops failed",
             "setup_s": f"median of {SETUP_REPEATS} fresh imports of entransfer.cli",
             "ops_per_s": f"{n - len(loop.failures)} ops in {sum(scaled):.3f} s of op time"}
    raw = {"setup_s": setup_s["raw"],
           "ops_per_s": (n - len(loop.failures)) / loop.busy_s,
           "op_p50_ms": 1e3 * statistics.median(loop.latencies),
           "op_tail_ms": 1e3 * raw_tail,
           "kernel_ms": statistics.median(loop.clock.durations)}
    return metrics, notes, raw


def per_kind(loop):
    kinds = {}
    for op, lat in zip(loop.ops, loop.latencies):
        kinds.setdefault(op.kind, []).append(lat)
    return {k: {"n": len(v), "p50_ms": 1e3 * statistics.median(v)}
            for k, v in sorted(kinds.items())}


# The child notes the monotonic clock, which it shares with the parent, as
# soon as the import is done; then it times the series calibration kernel
# on its own CPU (the first run warms it up and is dropped).
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import entransfer.cli
done = time.perf_counter()
sys.path.append(sys.argv[2])
import calibrate
print(done, *[calibrate.sample(calibrate.series)[1] for _ in range(7)][1:])
"""


def measure_setup(src):
    """Median time from starting a fresh interpreter until its import of
    entransfer.cli is done, at the reference speed and raw:
    {"scaled": s, "raw": s}."""
    bench = os.path.dirname(os.path.abspath(__file__))
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        out = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, src, bench],
                             check=True, capture_output=True, text=True, timeout=120).stdout
        done, *kernel_ms = map(float, out.split())
        raw.append(done - t0)
        scaled.append(raw[-1] * calibrate.KERNELS[calibrate.series]
                      / statistics.median(kernel_ms))
    return {"scaled": statistics.median(scaled), "raw": statistics.median(raw)}


def blas_threads():
    """Thread count reported by each OpenBLAS library bundled with numpy/scipy."""
    import ctypes
    found = {}
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                            pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    found[os.path.basename(path)] = fn()
                    break
    return found


def git_revision(root):
    env = dict(os.environ, GIT_DIR=os.path.join(root, ".git"))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], env=env, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(root):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "git_revision": git_revision(root),
    }


def run(workload, seed, seconds, trace, root):
    """Run one workload and print the report; the last line is the JSON result."""
    src = os.path.join(root, "src")
    if not os.path.abspath(entransfer.__file__).startswith(src + os.sep):
        raise RuntimeError(f"entransfer imported from {entransfer.__file__}, not {src}")
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=out_dir)
    try:
        kernel = workloads.KERNELS[workload]
        calibrate.sample(kernel)            # warm-up
        setup_s = None if trace else measure_setup(src)
        ops = workloads.make_ops(workload, seed, scratch, root)
        first = next(ops)
        execute(first, Loop())             # warm-up; the loop runs this op again
        ops = chain([first], ops)
        # The objects loaded so far (numpy, scipy, the package) are not
        # garbage.  Frozen, they are left out of full collections, which
        # otherwise scan all of them and add 20-45 ms to one op in a few
        # hundred: a cost of this long-lived process that a CLI call, one
        # process per command, does not pay.
        gc.collect()
        gc.freeze()
        record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                  "env": environment(root)}
        if trace:
            tracer = spans.Tracer()
            untraced, traced = run_traced(ops, seconds, tracer, random.Random(seed))
            metrics = tracer.metrics(len(traced.ops), traced.busy_s, untraced.busy_s)
            units = spans.UNITS
            notes = {"trace.overhead_ms": "traced minus untraced op time, same ops"}
            tracer.dump(os.path.join(out_dir, f"spans-{workload}-seed{seed}.json.gz"))
            loops = (untraced, traced)
        else:
            loop = run_loop(ops, seconds, kernel)
            metrics, notes, raw = end_to_end(loop, setup_s)
            record["raw"] = raw
            record["calibration"] = list(zip(loop.clock.times, loop.clock.durations))
            units = UNITS
            loops = (loop,)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(lp.ops) for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    record.update(
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        notes=notes, per_kind=per_kind(loops[-1]),
        warnings=sum(lp.warnings for lp in loops),
        attempted=attempted, failed=len(failures), failures=failures[:20],
        ops=[(op.kind, op.cycle, st, lat) for op, st, lat in
             zip(loops[-1].ops, loops[-1].starts, loops[-1].latencies)])
    with open(os.path.join(out_dir, f"result-{workload}-seed{seed}-trace{trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print("# env " + json.dumps(record["env"]))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:26s} {value:14.6g} {units[name]}{note}")
    if "raw" in record:
        print("# times above are at the reference speed of calibrate.py")
        print("# raw wall times: " + " ".join(f"{k}={v:.6g}" for k, v in record["raw"].items()))
    for kind, stats in record["per_kind"].items():
        print(f"# kind {kind:18s} n={stats['n']:<6d} raw p50={stats['p50_ms']:.4g} ms")
    print(f"# captured warnings: {record['warnings']} (Delta-regime UserWarning; "
          "not failures)")
    for index, kind, message in failures[:5]:
        print(f"# FAILED op {index} ({kind}): {message}")
    # op_fail_frac is 0 when the program is correct, so it is not a bounded
    # metric of BENCHMARK.json; the result line carries it as failed/attempted
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: v for k, v in record["metrics"].items()
                          if k != "op_fail_frac"}}
    print(json.dumps(result))
    return 0
