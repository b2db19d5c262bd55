"""Benchmark of qamatch, end to end (--trace 0) or layer by layer (--trace 1).

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload full --seed 1 --seconds 40 --trace 0

The workload runs in this one process (see harness.py). Rounds repeat
while the next one would end within ``--seconds`` (at least MIN_ROUNDS
times); each end-to-end metric is the median over the run's samples. With
``--trace 1`` every second round is traced and the run reports per-layer
metrics instead. Every output is checked against the benchmark's own
recomputation. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; machine metadata, failed
operations and failed checks go to standard error. The exit code is 0
when every check held.
"""

import os

# One BLAS thread, set before numpy loads; machine() reads the count back.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import glob
import json
import platform
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_ROUNDS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path; refuse any other qamatch."""
    package = os.path.join(SRC, "qamatch")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"error: no qamatch sources in {package}; run from a source checkout")
    sys.path.insert(0, SRC)
    import qamatch

    if os.path.dirname(os.path.abspath(qamatch.__file__)) != package:
        sys.exit(f"error: imported qamatch from {qamatch.__file__}, not {package}")


def machine() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": threads,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from harness import Bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    start = time.perf_counter()
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work)
        rounds = 0
        # stop before a round that would end past --seconds, judged by the mean round so far
        while rounds < MIN_ROUNDS or (time.perf_counter() - start) * (rounds + 1) / rounds <= args.seconds:
            bench.round(traced=bool(args.trace) and rounds % 2 == 1)
            rounds += 1
        metrics = bench.metrics(bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    summary = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
               "seconds": time.perf_counter() - start, "machine": machine(),
               **bench.raw_summary()}
    print(json.dumps(summary), file=sys.stderr)
    for line in bench.op_errors + bench.check_errors:
        print(line, file=sys.stderr)
    correct = not bench.check_errors
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
