#!/usr/bin/env python3
"""Large-instance sweep: wall time and pivots of the two convex drivers,
each instance in a fresh process.

Usage, from the repository root:

    python tests/scale_sweep.py OUT.json [SRC [REPEATS]]

``SRC`` is the ``src`` directory of the tree to time (default: this
tree's), so the same script times another commit unpacked elsewhere, for
instance with ``git archive``.  The instances are those ``conicqp gen``
writes with ``--r 20 --alpha 0.1 --omega 2`` at seeds 1 and 2: grid paths
of 20x20, 24x24 and 30x30 nodes, and cardinality instances with n = 800,
3,200 and 12,800.  Each instance is generated, saved, loaded and solved
by ``solve_cd`` and then ``solve_bisection`` in a child process of its
own, after one untimed solve of a 4x4 grid; the children run one at a
time.  The sweep passes over the instances ``REPEATS`` times (default 3),
so the repeats of an instance are spread over the run.

The JSON file records per instance and driver, in run order, the wall
time of each solve, its QPs, pivots, objective (``repr``) and status, and
the median wall time; and once, the setup the children ran under: the
Python, NumPy and SciPy versions, the OpenBLAS versions that NumPy and
SciPy each ship (``show_config``), the thread variables of the
environment and the number of CPUs the process may run on.  The script
sets no thread count: it times the host's default, which is what a user
of the package gets.

Pytest does not collect this file.  Three repeats take two to four
minutes on a 2-vCPU host, most of it in the 30x30 grids.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (family, size, seed): size is n for cardinality, the side p = q for grids
MATRIX = [(family, size, seed)
          for family, sizes in (("gridpath", (20, 24, 30)),
                                ("cardinality", (800, 3200, 12800)))
          for size in sizes for seed in (1, 2)]
RECIPE = {"r": 20, "alpha": 0.1, "omega": 2.0}
DRIVERS = ("cd", "bisection")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def label(family: str, size: int, seed: int) -> str:
    shape = f"n{size}" if family == "cardinality" else f"{size}x{size}"
    return f"{family}_{shape}_s{seed}"


def child(src: str, family: str, size: int, seed: int) -> dict:
    """Generate, save, load and solve one instance; the record of each
    driver and the process's BLAS setup."""
    sys.path.insert(0, src)
    import numpy
    import scipy

    import conicqp
    from conicqp.generate import GenSpec, generate, load_instance, save_instance

    if Path(conicqp.__file__).resolve().parent != (Path(src) / "conicqp").resolve():
        sys.exit(f"imported conicqp from {conicqp.__file__}, not from {src}")
    grid = family == "gridpath"
    spec = GenSpec(family=family, n=None if grid else size,
                   p=size if grid else None, q=size if grid else None,
                   seed=seed, **RECIPE)
    solvers = {"cd": conicqp.solve_cd, "bisection": conicqp.solve_bisection}
    with tempfile.TemporaryDirectory() as tmp:
        warm_up = Path(tmp) / "warm_up.json"
        save_instance(generate(GenSpec(family="gridpath", p=4, q=4, seed=1,
                                       **RECIPE)), warm_up)
        conicqp.solve_cd(load_instance(warm_up))
        path = Path(tmp) / "instance.json"
        save_instance(generate(spec), path)
        out = {}
        for drv in DRIVERS:
            inst = load_instance(path)
            t0 = time.perf_counter()
            res = solvers[drv](inst)
            wall = time.perf_counter() - t0
            out[drv] = {"wall_s": wall, "qps": len(res.qp_pivots),
                        "pivots": sum(res.qp_pivots),
                        "objective": repr(res.objective),
                        "status": res.status.value}
    blas = {lib: mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            .get("version") for lib, mod in (("numpy", numpy), ("scipy", scipy))}
    out["setup"] = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas_numpy": blas["numpy"],
        "openblas_scipy": blas["scipy"],
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "sched_getaffinity": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count()}
    return out


def sweep(src: Path, repeats: int) -> dict:
    rows = {label(*key): {drv: {"wall_s": [], "qps": [], "pivots": [],
                                "objective": [], "status": []}
                          for drv in DRIVERS} for key in MATRIX}
    setup = None
    for _ in range(repeats):
        for family, size, seed in MATRIX:
            name = label(family, size, seed)
            print(name, file=sys.stderr, flush=True)
            done = subprocess.run(
                [sys.executable, __file__, "--child", str(src), family,
                 str(size), str(seed)],
                check=True, capture_output=True, text=True)
            rec = json.loads(done.stdout)
            setup = setup or rec["setup"]
            if rec["setup"] != setup:
                sys.exit(f"{name}: the BLAS setup changed during the sweep")
            for drv in DRIVERS:
                for key, value in rec[drv].items():
                    rows[name][drv][key].append(value)
    for row in rows.values():
        for rec in row.values():
            rec["wall_s_median"] = statistics.median(rec["wall_s"])
    return {"recipe": RECIPE, "repeats": repeats, "setup": setup,
            "instances": rows}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        src, family, size, seed = argv[1:]
        print(json.dumps(child(src, family, int(size), int(seed))))
        return 0
    if not 1 <= len(argv) <= 3:
        sys.exit(__doc__.split("\n\n")[1])
    src = Path(argv[1] if len(argv) > 1 else Path(__file__).parents[1] / "src")
    repeats = int(argv[2]) if len(argv) > 2 else 3
    doc = sweep(src.resolve(), repeats)
    Path(argv[0]).write_text(json.dumps(doc, indent=1) + "\n")
    for name, row in doc["instances"].items():
        print(f"{name:28s} " + "  ".join(
            f"{drv} {rec['wall_s_median']:7.3f} s {rec['qps'][0]:3d} QPs "
            f"{rec['pivots'][0]:5d} pivots" for drv, rec in row.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
