#!/usr/bin/env python3
"""Every outcome of an instance set, one record per solve, and how two runs
differ.

Usage, from the repository root:

    PYTHONPATH=src python tests/outcomes.py corpus OUT.json
    PYTHONPATH=src python tests/outcomes.py bench OUT.json 7 1
    python tests/outcomes.py compare OLD.json NEW.json

Two instance sets are data here:

* ``corpus``, the fixed bad-input corpus.  Instance i is ``bad_instance``
  (``test_bad_inputs.py``) with arguments drawn in this order from
  ``numpy.random.default_rng([i, 2024])``: ``seed`` by ``integers(0,
  10000)``, ``rows``, ``pins`` by ``integers(0, 3)``, then ``extra``,
  ``d_scale``, ``costs`` and ``omega``, each picked by ``integers(3)`` from
  the list of that name in ``test_bad_inputs.CHOICES``.  ``cd`` and
  ``bisect`` solve all 800 instances, and ``bnb``, with a node limit of
  200, the binary twins of the first 210.
* ``bench``, the benchmark's instance sets at the given relabel seeds: per
  seed and workload of ``perfbench/workloads.py``, its ``set_up`` builds the
  set, and each of the workload's drivers solves every instance, loaded
  afresh, with its defaults.  Only that module is imported from the
  benchmark, and nothing there is changed.

The JSON file maps each instance's label to what defines it (``inputs``),
and each driver to a record per instance it solved (``records``).  A
record holds the outcome (``status``: a solve status, the name of a typed
error, or ``untyped`` and the name of any other exception) and whether it
is ``certified``.  A convex solve is certified when its status is solved
(Optimal or ToleranceReached), it carries a KKT certificate and its point
is feasible to 1e-7; a tree, when its status is Optimal or GapReached and
its incumbent is an integral point feasible to 1e-7.  A solve that
returns adds every figure of its result: for a convex solve the
certificate's ``residual_inf`` (None unless certified), the objective's
and ``t``'s ``repr``, the stop reason, the pivots of every QP and their
sums, the SHA-256 of the bytes of ``x``, the jumps tried and taken,
whether the first QP ran Phase-1, ``trace`` and ``interval_trace``; for a
tree its nodes, QPs, pivots, warm accepts and repairs, infeasible and
uncertified nodes, jumps, the ``repr`` of the incumbent's objective
(``incumbent``) and of the best bound, and the incumbent's bytes.
``tests/scale_sweep.py`` writes the same records.  Standard output shows
the outcomes per driver as a table and, per convex driver, the largest
certified ``residual_inf``.

``compare`` reads two files of the same instance set, for instance one
written at a parent commit and one at a change, and prints per driver: the
instances that lost or gained a certificate and those whose outcome class
changed (a status, "certified" or "solved without certificate"); the solves
whose status changed; the number and labels of records that differ in any
field; the largest relative objective difference over the solves certified
in both files; and the trees whose nodes, incumbent or best bound changed.
It exits with status 1 when a certificate was lost.

Pytest does not collect this file.  On a 2-vCPU host the corpus takes
about 20 s, and the benchmark sets at two seeds about 15 s.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from collections import Counter
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# this tree's package when PYTHONPATH names none, as for ``compare``
sys.path.append(str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
from conicqp.bnb import BNB_SOLVED, BnbOptions, BnbResult  # noqa: E402
from conicqp.generate import load_instance  # noqa: E402
from test_bad_inputs import CHOICES, SOLVED, TYPED_ERRORS, bad_instance  # noqa: E402
from workloads import DRIVERS, WORKLOADS, set_up  # noqa: E402

SIZE = 800
BNB_SIZE = 210
BNB_NODE_LIMIT = 200
SOLVED_NAMES = {s.value for s in SOLVED + BNB_SOLVED}


def record(inst, res) -> dict:
    """One solve's record; see the module docstring."""
    rec = {"status": res.status.value, "qps": res.qp_count,
           "pivots": res.pivot_count, "jumps_tried": res.jumps_tried,
           "jumps_taken": res.jumps_taken}
    if isinstance(res, BnbResult):
        x = res.incumbent_x
        ok = (res.status in BNB_SOLVED and x is not None
              and inst.poly.contains(x, tol=1e-7)
              and bool(np.all(np.abs(x - np.round(x)) <= 1e-5)))
        return rec | {
            "certified": ok, "nodes": res.nodes_processed,
            "warm_accepts": res.warm_accepts, "warm_repairs": res.warm_repairs,
            "infeasible_nodes": res.infeasible_nodes,
            "uncertified_nodes": res.uncertified_nodes,
            "incumbent": repr(res.incumbent_obj),
            "best_bound": repr(res.best_bound),
            "incumbent_x": None if x is None else x.tobytes().hex()}
    ok = (res.status in SOLVED and res.kkt is not None
          and inst.poly.contains(res.x, tol=1e-7))
    return rec | {
        "certified": ok, "residual_inf": res.kkt.residual_inf if ok else None,
        "objective": repr(res.objective), "stop_reason": res.stop_reason,
        "qp_pivots": list(res.qp_pivots),
        "x_sha256": hashlib.sha256(res.x.tobytes()).hexdigest(),
        "first_qp_used_phase1": res.first_qp_used_phase1, "t": repr(res.t),
        "trace": res.trace, "interval_trace": res.interval_trace}


def outcome(inst, solve) -> dict:
    """The record of ``solve(inst)``, or of the error it raises."""
    try:
        return record(inst, solve(inst))
    except Exception as err:  # an untyped one is counted, so the run goes on
        name = type(err).__name__
        return {"status": name if isinstance(err, TYPED_ERRORS)
                else f"untyped {name}", "certified": False}


def corpus_params(i: int) -> dict:
    rng = np.random.default_rng([i, 2024])
    params = {"seed": int(rng.integers(0, 10000)),
              "rows": CHOICES["rows"][rng.integers(3)],
              "pins": int(rng.integers(0, 3))}
    for name in ("extra", "d_scale", "costs", "omega"):
        params[name] = CHOICES[name][rng.integers(3)]
    return params


def corpus():
    """Per instance: its label, its definition and the (driver, instance,
    solver) of each solve."""
    bnb = partial(DRIVERS["bnb"], opts=BnbOptions(node_limit=BNB_NODE_LIMIT))
    for i in range(SIZE):
        params = corpus_params(i)
        inst = bad_instance(**params)
        solves = [("cd", inst, DRIVERS["cd"]), ("bisect", inst, DRIVERS["bisect"])]
        if i < BNB_SIZE:
            solves.append(("bnb", bad_instance(**params, discrete=True), bnb))
        yield str(i), params, solves


def bench(seeds: list[int]):
    """As ``corpus``, over the benchmark's sets at the relabel seeds."""
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for work in WORKLOADS.values():
                for round_ in set_up(work, seed, Path(tmp)):
                    for item in round_:
                        yield (f"{work.name} seed {seed} {item.label}",
                               {"relabel_seed": seed, **asdict(item.spec)},
                               [(drv, load_instance(item.path), DRIVERS[drv])
                                for drv in work.drivers])


def category(rec: dict) -> str:
    return ("certified" if rec["certified"] else "solved without certificate"
            if rec["status"] in SOLVED_NAMES else rec["status"])


def table(doc: dict) -> None:
    """Print the outcomes per driver and the largest certified residuals."""
    rows = doc["records"]
    counts = {drv: Counter(map(category, recs.values()))
              for drv, recs in rows.items()}
    columns = ["certified"] + sorted(set().union(*counts.values()) - {"certified"})
    print("| driver | " + " | ".join(columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for drv, row in counts.items():
        cells = " | ".join(str(row[c]) if row[c] else "" for c in columns)
        print(f"| `{drv}` ({len(rows[drv])}) | {cells} |")
    print(f"certified total: {sum(row['certified'] for row in counts.values())}")
    for drv, recs in rows.items():
        resid = [(rec["residual_inf"], label) for label, rec in recs.items()
                 if rec["certified"] and "residual_inf" in rec]
        if resid:
            worst, label = max(resid)
            print(f"{drv}: largest certified residual_inf {worst:.3g} "
                  f"(instance {label}), "
                  f"{sum(r > 1e-5 for r, _ in resid)} above 1e-5")


def moves(pairs, key) -> list[str]:
    """A line per pair of records whose ``key`` differs."""
    return [f"  {label}: {key(a)} -> {key(b)}" for label, a, b in pairs
            if key(a) != key(b)]


def compare(old_path: str, new_path: str) -> int:
    """Print how the records in ``new_path`` differ from those in
    ``old_path``, per driver; returns the number of certificates lost."""
    old, new = (json.loads(Path(path).read_text()) for path in (old_path, new_path))
    if old["inputs"] != new["inputs"]:
        sys.exit("the two files hold different instance sets")
    lost_total = 0
    for drv, recs in old["records"].items():
        pairs = [(label, a, new["records"][drv][label])
                 for label, a in recs.items()]
        lost = [label for label, a, b in pairs if a["certified"] > b["certified"]]
        gained = [label for label, a, b in pairs if a["certified"] < b["certified"]]
        changed = moves(pairs, category)
        print(f"{drv}: {len(lost)} lost, {len(gained)} gained, "
              f"{len(changed)} changed")
        print(f"  lost: {', '.join(lost)}\n  gained: {', '.join(gained)}")
        status = moves(pairs, lambda rec: rec["status"])
        differ = [label for label, a, b in pairs if a != b]
        print("\n".join(changed + [f"  {len(status)} status changed"] + status
                        + [f"  {len(differ)} records differ: {', '.join(differ)}"]))
        key = "incumbent" if drv == "bnb" else "objective"
        both = [(abs(float(a[key]) - float(b[key]))
                 / max(abs(float(a[key])), abs(float(b[key])), 1e-300), label)
                for label, a, b in pairs if a["certified"] and b["certified"]]
        worst, label = max(both, default=(0.0, ""))
        print(f"  largest relative objective difference over {len(both)} "
              f"certified in both: {worst:.3g}" + (f" ({label})" if worst else ""))
        if drv == "bnb":
            trees = moves(pairs, lambda rec: [rec.get(k) for k in
                                              ("nodes", "incumbent", "best_bound")])
            print("\n".join([f"  {len(trees)} trees changed"] + trees))
        lost_total += len(lost)
    return lost_total


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"] and len(argv) == 3:
        return 1 if compare(argv[1], argv[2]) else 0
    if argv[:1] == ["corpus"] and len(argv) == 2:
        items = corpus()
    elif argv[:1] == ["bench"] and len(argv) > 2:
        items = bench([int(s) for s in argv[2:]])
    else:
        sys.exit("\n\n".join(__doc__.split("\n\n")[1:3]))
    doc = {"inputs": {}, "records": {}}
    for label, definition, solves in items:
        doc["inputs"][label] = definition
        for drv, inst, solve in solves:
            doc["records"].setdefault(drv, {})[label] = outcome(inst, solve)
    Path(argv[1]).write_text(json.dumps(doc, indent=1) + "\n")
    table(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
