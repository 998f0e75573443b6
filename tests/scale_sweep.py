#!/usr/bin/env python3
"""Large-instance sweep: wall time and pivots of the convex drivers, or of
branch-and-bound, each instance in a fresh process.

Usage, from the repository root:

    python tests/scale_sweep.py OUT.json [SRC [REPEATS [MATRIX]]]

``SRC`` is the ``src`` directory of the tree to time (default: this
tree's), so the same script times another commit unpacked elsewhere, for
instance with ``git archive``.  ``MATRIX`` picks the instances and drivers
(default ``convex``):

* ``convex``: the instances ``conicqp gen`` writes with ``--r 20 --alpha
  0.1 --omega 2`` at seeds 1 and 2, grid paths of 20x20, 24x24 and 30x30
  nodes and cardinality instances with n = 800, 3,200 and 12,800, each
  solved by ``solve_cd`` and then ``solve_bisection``;
* ``bnb``: the instances of ``conicqp gen --discrete --r 20 --alpha 0.1
  --omega 6`` at seeds 1 and 2, cardinality with n = 100 and 200 and grid
  paths of 10x10 and 12x12 nodes, each solved by ``solve_bnb`` with its
  defaults (gap 1e-4, no time or node limit, so the trees do not depend on
  the host).

Each instance is generated, saved, loaded and solved in a child process of
its own, after one untimed ``solve_cd`` of a 4x4 grid; the children run one
at a time.  The sweep passes over the instances ``REPEATS`` times (default
3), so the repeats of an instance are spread over the run.

The JSON file records per instance and driver, in run order, the wall
time of each solve and every field of its record as ``tests/outcomes.py``
writes it: among them the QPs, pivots, status and objective (``repr``) of
a convex solve, and the nodes, QPs, pivots, warm accepts and repairs,
jumps, status and the ``repr`` of the incumbent objective and best bound
of a tree.  Each driver also gets the median wall time.  The first
repeat's records are kept again under ``inputs`` and ``records``, in that
tool's shape, so its ``compare`` reads two sweep files.  The file records
once the setup the children ran under: the Python, NumPy and SciPy versions, the
OpenBLAS versions that NumPy and SciPy each ship (``show_config``), the
thread variables of the environment and the number of CPUs the process may
run on.  The script sets no thread count: it times the host's default,
which is what a user of the package gets.

Pytest does not collect this file.  Three repeats of ``convex`` take two to
four minutes on a 2-vCPU host, most of it in the 30x30 grids; one repeat of
``bnb`` takes seven to eight minutes, five of them in the n = 200 tree at
seed 2 (152,812 nodes).
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

# per matrix: the generator's recipe, the (family, size, seed) instances,
# where size is n for cardinality and the side p = q for grids, and the
# drivers that solve each instance
MATRICES = {
    "convex": ({"r": 20, "alpha": 0.1, "omega": 2.0},
               [(family, size, seed)
                for family, sizes in (("gridpath", (20, 24, 30)),
                                      ("cardinality", (800, 3200, 12800)))
                for size in sizes for seed in (1, 2)],
               ("cd", "bisection")),
    "bnb": ({"r": 20, "alpha": 0.1, "omega": 6.0, "discrete": True},
            [(family, size, seed)
             for family, sizes in (("cardinality", (100, 200)),
                                   ("gridpath", (10, 12)))
             for size in sizes for seed in (1, 2)],
            ("bnb",)),
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def label(family: str, size: int, seed: int) -> str:
    shape = f"n{size}" if family == "cardinality" else f"{size}x{size}"
    return f"{family}_{shape}_s{seed}"


def child(src: str, matrix: str, family: str, size: int, seed: int) -> dict:
    """Generate, save, load and solve one instance; the record of each
    driver and the process's BLAS setup."""
    sys.path.insert(0, src)
    import numpy
    import scipy

    import conicqp
    from conicqp.generate import GenSpec, generate, load_instance, save_instance

    if Path(conicqp.__file__).resolve().parent != (Path(src) / "conicqp").resolve():
        sys.exit(f"imported conicqp from {conicqp.__file__}, not from {src}")
    from outcomes import record  # only now, so it records SRC's results
    recipe, _, drivers = MATRICES[matrix]
    shape = {"p": size, "q": size} if family == "gridpath" else {"n": size}
    spec = GenSpec(family=family, seed=seed, **shape, **recipe)
    solvers = {"cd": conicqp.solve_cd, "bisection": conicqp.solve_bisection,
               "bnb": conicqp.solve_bnb}
    with tempfile.TemporaryDirectory() as tmp:
        warm_up = Path(tmp) / "warm_up.json"
        save_instance(generate(GenSpec(family="gridpath", p=4, q=4, seed=1,
                                       **MATRICES["convex"][0])), warm_up)
        conicqp.solve_cd(load_instance(warm_up))
        path = Path(tmp) / "instance.json"
        save_instance(generate(spec), path)
        out = {"wall_s": {}}
        for drv in drivers:
            inst = load_instance(path)
            t0 = time.perf_counter()
            res = solvers[drv](inst)
            out["wall_s"][drv] = time.perf_counter() - t0
            out[drv] = record(inst, res)
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


def sweep(src: Path, repeats: int, matrix: str) -> dict:
    recipe, instances, drivers = MATRICES[matrix]
    rows = {label(*key): {drv: {} for drv in drivers} for key in instances}
    records, setup = {}, None
    for _ in range(repeats):
        for family, size, seed in instances:
            name = label(family, size, seed)
            print(name, file=sys.stderr, flush=True)
            done = subprocess.run(
                [sys.executable, __file__, "--child", str(src), matrix, family,
                 str(size), str(seed)],
                check=True, capture_output=True, text=True)
            rec = json.loads(done.stdout)
            setup = setup or rec["setup"]
            if rec["setup"] != setup:
                sys.exit(f"{name}: the BLAS setup changed during the sweep")
            for drv in drivers:
                records.setdefault(drv, {}).setdefault(name, rec[drv])
                for key, value in {"wall_s": rec["wall_s"][drv], **rec[drv]}.items():
                    rows[name][drv].setdefault(key, []).append(value)
    for row in rows.values():
        for rec in row.values():
            rec["wall_s_median"] = statistics.median(rec["wall_s"])
    return {"matrix": matrix, "recipe": recipe, "repeats": repeats,
            "setup": setup, "instances": rows,
            "inputs": {label(*key): list(key) for key in instances},
            "records": records}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        src, matrix, family, size, seed = argv[1:]
        print(json.dumps(child(src, matrix, family, int(size), int(seed))))
        return 0
    if not 1 <= len(argv) <= 4 or argv[3:] and argv[3] not in MATRICES:
        sys.exit("\n\n".join(__doc__.split("\n\n")[1:3]))
    src = Path(argv[1] if len(argv) > 1 else Path(__file__).parents[1] / "src")
    repeats = int(argv[2]) if len(argv) > 2 else 3
    matrix = argv[3] if len(argv) > 3 else "convex"
    doc = sweep(src.resolve(), repeats, matrix)
    Path(argv[0]).write_text(json.dumps(doc, indent=1) + "\n")
    for name, row in doc["instances"].items():
        print(f"{name:28s} " + "  ".join(
            f"{drv} {rec['wall_s_median']:7.3f} s {rec['qps'][0]:5d} QPs "
            f"{rec['pivots'][0]:6d} pivots"
            + (f" {rec['nodes'][0]:6d} nodes" if "nodes" in rec else "")
            for drv, rec in row.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
