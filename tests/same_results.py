#!/usr/bin/env python3
"""Every result of the benchmark's instance sets, for byte-for-byte comparison.

Usage, from the repository root:

    PYTHONPATH=src python tests/same_results.py results.json 7 1

The arguments after the output file are relabel seeds.  For each seed and
each workload of ``perfbench/workloads.py``, the instance set is built by
that module's ``set_up`` and every instance is solved, loaded afresh, by
each of the workload's drivers.  The JSON file records, per convex solve,
the objective's ``repr``, the status, the stop reason, the pivots of every
QP, the SHA-256 of the bytes of ``x``, the fixed-point jumps tried and
taken, whether the first QP ran Phase-1, the ``repr`` of ``t``, the
``trace`` and ``interval_trace`` and the certificate's ``residual_inf``
(``None`` without a certificate); per B&B tree, the status, the
incumbent's bytes and objective, and the node, QP, pivot, warm-accept,
repair, infeasible-node, uncertified-node and jump counts.  Two versions
of the code give the same results on these sets exactly when their files
are identical (``cmp``): run this same script once with ``PYTHONPATH`` at
each version's ``src``.

Only ``perfbench/workloads.py`` is imported from the benchmark, and
nothing there is changed.  Pytest does not collect this file; a run at two
seeds takes under a minute.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import conicqp.generate as G

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import DRIVERS, WORKLOADS, set_up  # noqa: E402


def convex_record(res) -> dict:
    return {"objective": repr(res.objective), "status": res.status.value,
            "stop_reason": res.stop_reason, "qp_pivots": list(res.qp_pivots),
            "x_sha256": hashlib.sha256(res.x.tobytes()).hexdigest(),
            "jumps_tried": res.jumps_tried, "jumps_taken": res.jumps_taken,
            "first_qp_used_phase1": res.first_qp_used_phase1,
            "t": repr(res.t), "trace": res.trace,
            "interval_trace": res.interval_trace,
            "residual_inf": None if res.kkt is None else res.kkt.residual_inf}


def bnb_record(res) -> dict:
    x = res.incumbent_x
    return {"status": res.status.value,
            "incumbent": None if x is None else x.tobytes().hex(),
            "incumbent_obj": repr(res.incumbent_obj),
            "nodes": res.nodes_processed, "qps": res.qp_count,
            "pivots": res.pivot_count, "accepts": res.warm_accepts,
            "repairs": res.warm_repairs, "infeasible": res.infeasible_nodes,
            "uncertified": res.uncertified_nodes,
            "jumps_tried": res.jumps_tried, "jumps_taken": res.jumps_taken}


def results(seeds: list[int]) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for work in WORKLOADS.values():
                rows = []
                for round_ in set_up(work, seed, Path(tmp)):
                    for item in round_:
                        row = {"instance": item.label}
                        for drv in work.drivers:
                            res = DRIVERS[drv](G.load_instance(item.path))
                            row[drv] = (bnb_record(res) if drv == "bnb"
                                        else convex_record(res))
                        rows.append(row)
                out[f"{work.name} seed {seed}"] = rows
    return out


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit("\n\n".join(__doc__.split("\n\n")[1:3]))
    doc = results([int(s) for s in sys.argv[2:]])
    Path(sys.argv[1]).write_text(json.dumps(doc, indent=1) + "\n")
