"""Benchmark of dwimoco: end-to-end metrics, or per-layer spans with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload case_ref --seed 1 --seconds 20 --trace 0

The workloads, their metric names and units are listed in BENCHMARK.json at
the root; the inputs of a workload are a pure function of --seed.  A run
sets up the inputs several times (the median is ``setup_s``; the one-off
import of numpy, scipy and dwimoco is printed apart as ``import_s``), then
repeats one timed unit of work while another fits in --seconds (the median
is ``wall_s``), checking the outputs of every unit outside the timing.

With --trace 0 it reports the end-to-end metrics.  With --trace 1 it
alternates untraced and traced units, reports per-layer self times and
counts per unit from the traced ones, and the tracing overhead as the
difference of the two medians; a cohort then runs its cases in one process,
so no worker's spans are lost.

Human-readable lines (environment, sizes, accuracy against ground truth,
failure fraction) come first; the last line of standard output is the JSON
result.  Scratch files and the recorded spans go to .bench_build/perfbench.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # pinned before numpy loads, so BLAS/OpenMP pools stay at one thread and
    # the cohort's two workers never load more than the two cores
    for var in THREAD_VARS:
        os.environ[var] = "1"
    t_import = time.perf_counter()
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "dwimoco" / "__init__.py").is_file():
        print(f"error: no dwimoco sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    import_s = time.perf_counter() - t_import
    return bench.run(root, args, import_s)


if __name__ == "__main__":
    sys.exit(main())
