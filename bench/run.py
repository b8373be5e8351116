"""entransfer benchmark: one workload per process, from a seed.

    python3 bench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json): ``closed-form`` (CLI calls
that stay on the closed forms), ``all-pairs`` (concurrence series of all 15
pairs through the library) and ``oracle`` (``validate`` via the CLI).

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs every op twice, once untraced and once with every layer's public
functions wrapped in spans, and prints the per-layer metrics and the tracing
overhead.  End-to-end times are reported at a fixed reference machine speed,
measured by a calibration kernel timed between ops (calibrate.py), because
the shared host's speed drifts by up to 2x; the raw wall times are printed
on a comment line and kept in the run record.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Run records and spans go
to ``.bench_out/`` at the repository root.

The package is imported from this checkout's ``src/``; the run fails with
exit code 2 when it is missing.
"""

import argparse
import os
import sys

# BLAS threads: never more than nproc, and fixed at 2 on bigger machines so
# that figures stay comparable with the 2-core baseline.
MAX_BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("closed-form", "all-pairs", "oracle")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time to measure (untraced plus traced with --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # must happen before numpy is imported
    threads = min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "entransfer", "__init__.py")):
        print(f"error: no entransfer package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness
    return harness.run(args.workload, args.seed, args.seconds, args.trace, root)


if __name__ == "__main__":
    sys.exit(main())
