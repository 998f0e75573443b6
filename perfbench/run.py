#!/usr/bin/env python3
"""The repository benchmark: end-to-end solve times and per-layer splits.

Usage, from the repository root:

    python3 perfbench/run.py --workload convex-card --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``convex-card`` and ``convex-grid`` solve
each instance with ``solve_cd`` and ``solve_bisection``; ``bnb-discrete``
runs ``solve_bnb``.  Every solve is timed on a freshly loaded instance after
one untimed warm-up solve, and checked by the gate in ``gate.py``.

Both modes make whole passes over the instance set, in a fixed order, so
every instance weighs the same in a figure; the number of passes is the one
that brings the run's length closest to ``--seconds``, and at least one.
With ``--trace 0`` each pass solves every instance once and the run reports
end-to-end metrics.  With ``--trace 1`` each pass solves every instance
once untraced and once traced; the run reports per-layer metrics per pass, the
tracing overhead, and fails the run if tracing changed any QP or pivot
count.  Spans are written to ``.perfbench_out/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the same figures for people, split per driver, with the percentile and
sample count behind each tail figure and the BLAS set-up.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("convex-card", "convex-grid", "bnb-discrete")


def set_blas_threads() -> tuple[int, int]:
    """Cap the BLAS thread count at the usable cores; call before numpy loads.

    The library default is ``OPENBLAS_NUM_THREADS`` when set, else one
    thread per CPU.
    """
    nproc = len(os.sched_getaffinity(0))
    default = int(os.environ.get("OPENBLAS_NUM_THREADS") or os.cpu_count() or 1)
    threads = max(1, min(default, nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads, nproc


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads, nproc = set_blas_threads()
    src = ROOT / "src"
    if not (src / "conicqp" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src}/conicqp", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import conicqp
    if Path(conicqp.__file__).resolve().parent != (src / "conicqp").resolve():
        print(f"perfbench: imported conicqp from {conicqp.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    env = {
        "blas_threads": threads, "nproc": nproc,
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "openblas_numpy": numpy.show_config(mode="dicts")
        ["Build Dependencies"]["blas"].get("version"),
        "openblas_scipy": scipy.show_config(mode="dicts")
        ["Build Dependencies"]["blas"].get("version"),
    }
    from bench import Bench

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return Bench(args, env, tmp, ROOT).run()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
