#!/usr/bin/env python3
"""Time two versions of the package against each other in one process.

Usage, from the repository root:

    python tests/ab_timing.py PARENT_SRC CHANGE_SRC WORKLOAD PASSES SEED

``PARENT_SRC`` and ``CHANGE_SRC`` are the ``src`` directories of two trees,
for instance a ``git archive`` of the parent commit unpacked in a scratch
directory and this tree's ``src``.  Each tree's ``conicqp`` package is
loaded under its own name (``conicqp_parent``, ``conicqp_change``), and
``WORKLOAD`` (``convex-card``, ``convex-grid`` or ``bnb-discrete``) is the
instance set of ``perfbench/workloads.py`` at relabel seed ``SEED``, built
once by the parent's package.  Each pass solves every instance with every
driver of the workload, once per version, on an instance each version
loads afresh; the version that goes first alternates from one solve to the
next.  One untimed solve per version comes first.

Printed per driver and per instance size: the median time of a solve for
each version, the ratio of the change's median to the parent's, and the
ratio of the change's total solve time to the parent's.  With few passes
one slow solve decides a size's total, so the median ratio is the steadier
of the two; an A/A run on ``convex-grid`` read total ratios of 0.52-1.75
while its medians agreed within 12%.  Then per version the total time,
the time inside ``solve_qp`` and its pivots, and the time inside
``solve_lp`` (the LP relaxation and any Phase-1), so that the QP time per
pivot, Phase-1 excluded, shows where a difference sits.  Host drift
between the two versions is spread over both sides alike, which separate
benchmark processes cannot do.

Only ``perfbench/workloads.py`` is imported from the benchmark, and
nothing there is changed.  Pytest does not collect this file.
"""

from __future__ import annotations

import importlib.util
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

SIDES = ("parent", "change")


def load_package(src: Path, name: str):
    """Import ``src/conicqp`` as the top-level package ``name``."""
    init = src / "conicqp" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


class Meter:
    """Time and pivots inside one package's ``solve_qp`` and ``solve_lp``.

    Wraps the module attributes the drivers and the engine call through:
    ``solvers.solve_qp``, ``solvers.solve_lp`` (the LP relaxation) and
    ``qp.solve_lp`` (Phase-1, which runs inside ``solve_qp``)."""

    def __init__(self, pkg):
        self.reset()
        solvers = sys.modules[pkg.__name__ + ".solvers"]
        qp = sys.modules[pkg.__name__ + ".qp"]
        solvers.solve_qp = self._wrap(solvers.solve_qp, "qp_s", pivots=True)
        solvers.solve_lp = self._wrap(solvers.solve_lp, "lp_s")
        qp.solve_lp = self._wrap(qp.solve_lp, "phase1_s")

    def reset(self):
        self.qp_s = self.lp_s = self.phase1_s = 0.0
        self.pivots = 0

    def _wrap(self, fn, slot, pivots=False):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            setattr(self, slot, getattr(self, slot) + time.perf_counter() - t0)
            if pivots:
                self.pivots += out.iterations
            return out
        return timed


def main(argv: list[str]) -> int:
    if len(argv) != 5:
        sys.exit("\n\n".join(__doc__.split("\n\n")[1:3]))
    parent_src, change_src = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workload, passes, seed = argv[2], int(argv[3]), int(argv[4])
    pkgs = {"parent": load_package(parent_src, "conicqp_parent"),
            "change": load_package(change_src, "conicqp_change")}
    # workloads.py imports ``conicqp`` by name; let it resolve to the parent
    sys.path.insert(0, str(parent_src))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS, set_up

    work = WORKLOADS[workload]
    drivers = {side: {"cd": pkg.solve_cd, "bisect": pkg.solve_bisection,
                      "bnb": pkg.solve_bnb} for side, pkg in pkgs.items()}
    meters = {side: Meter(pkg) for side, pkg in pkgs.items()}
    times = defaultdict(list)  # (driver, size, side) -> seconds per solve
    with tempfile.TemporaryDirectory() as tmp:
        order = [item for row in set_up(work, seed, Path(tmp)) for item in row]

        def solve(side, item, drv):
            inst = pkgs[side].load_instance(item.path)
            t0 = time.perf_counter()
            drivers[side][drv](inst)
            return time.perf_counter() - t0

        for side in SIDES:  # untimed warm-up
            solve(side, order[0], work.drivers[0])
        for m in meters.values():
            m.reset()
        flip = 0
        for _ in range(passes):
            for item in order:
                size = item.label.rsplit("-s", 1)[0]
                for drv in work.drivers:
                    sides = SIDES if flip % 2 == 0 else SIDES[::-1]
                    flip += 1
                    for side in sides:
                        times[drv, size, side].append(solve(side, item, drv))

    print(f"ab_timing {workload} seed={seed} passes={passes} "
          f"parent={parent_src} change={change_src}")
    print(f"{'driver':7s} {'size':22s} {'parent p50':>11s} {'change p50':>11s} "
          f"{'p50 ratio':>11s} {'total ratio':>11s}")
    total = {side: 0.0 for side in SIDES}
    for drv, size in dict.fromkeys((d, s) for d, s, _ in times):
        med = {side: statistics.median(times[drv, size, side]) for side in SIDES}
        tot = {side: sum(times[drv, size, side]) for side in SIDES}
        for side in SIDES:
            total[side] += tot[side]
        print(f"{drv:7s} {size:22s} {med['parent']:11.4f} {med['change']:11.4f} "
              f"{med['change'] / med['parent']:11.3f} "
              f"{tot['change'] / tot['parent']:11.3f}")
    print(f"total solve time: parent {total['parent']:.3f} s, change "
          f"{total['change']:.3f} s, ratio {total['change'] / total['parent']:.3f}")
    for side in SIDES:
        m = meters[side]
        per_pivot = (m.qp_s - m.phase1_s) / m.pivots * 1e6 if m.pivots else 0.0
        print(f"{side}: total {total[side]:.3f} s; solve_qp {m.qp_s:.3f} s over "
              f"{m.pivots} pivots, {per_pivot:.1f} us per pivot without Phase-1; "
              f"solve_lp {m.lp_s + m.phase1_s:.3f} s (Phase-1 {m.phase1_s:.3f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
