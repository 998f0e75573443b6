#!/usr/bin/env python3
"""The fixed bad-input corpus: every outcome of 800 seeded bad instances.

Usage, from the repository root:

    PYTHONPATH=src python tests/bad_input_corpus.py corpus.json
    PYTHONPATH=src python tests/bad_input_corpus.py compare OLD.json NEW.json

Instance i is ``bad_instance`` (``test_bad_inputs.py``) with arguments drawn
in this order from ``numpy.random.default_rng([i, 2024])``: ``seed`` by
``integers(0, 10000)``, ``rows``, ``pins`` by ``integers(0, 3)``, then
``extra``, ``d_scale``, ``costs`` and ``omega``, each picked by
``integers(3)`` from the list of that name below (the lists of
``bad_params``).  ``solve_cd`` and ``solve_bisection`` run on all 800
instances, and ``solve_bnb`` with a node limit of 200 on the first 210 as
binary instances.

An outcome is a solve status, or the name of the exception raised.  A
convex outcome is certified when its status is solved (Optimal or
ToleranceReached) and it carries a KKT certificate, whose ``residual_inf``
the file records; a B&B outcome is certified when its status is Optimal or
GapReached and its incumbent is an integral point feasible to 1e-7.  A
solved outcome that fails these tests counts as "solved without
certificate", and an exception outside ``TYPED_ERRORS`` as untyped.  The
JSON file holds every instance's outcome per driver; standard output shows
the counts per driver as a table and, per convex driver, the largest
``residual_inf`` of a certified outcome and how many exceed 1e-5.

``compare`` reads two such files of the same corpus, for instance one
written at a parent commit and one at a change, and prints per driver the
instances that lost or gained a certificate and every instance whose
outcome changed.  It compares outcomes only, not residuals, and exits with
status 1 when a certificate was lost.

Pytest does not collect this file; a run takes one to two minutes.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from conicqp import BnbOptions, solve_bisection, solve_bnb, solve_cd
from conicqp.bnb import BNB_SOLVED
from test_bad_inputs import SOLVED, TYPED_ERRORS, bad_instance

SIZE = 800
BNB_SIZE = 210
BNB_NODE_LIMIT = 200
CHOICES = {
    "rows": ["card", "dense", "grid"],
    "extra": ["none", "duplicate", "dependent"],
    "d_scale": [1.0, 0.0, 1e-10],
    "costs": ["random", "tied", "positive"],
    "omega": [1.0, 1e-6, 1e6],
}
SOLVED_NAMES = {s.value for s in SOLVED + BNB_SOLVED}


def corpus_params(i: int) -> dict:
    rng = np.random.default_rng([i, 2024])
    params = {"seed": int(rng.integers(0, 10000))}
    params["rows"] = CHOICES["rows"][rng.integers(3)]
    params["pins"] = int(rng.integers(0, 3))
    for name in ("extra", "d_scale", "costs", "omega"):
        params[name] = CHOICES[name][rng.integers(3)]
    return params


def convex_outcome(inst, solver) -> tuple[str, bool, float | None]:
    """The outcome, whether it is certified, and the certificate's
    ``residual_inf`` when it is (None otherwise)."""
    try:
        res = solver(inst)
    except TYPED_ERRORS as err:
        return type(err).__name__, False, None
    except Exception as err:  # counted, so the run goes on
        return f"untyped {type(err).__name__}", False, None
    if (res.status in SOLVED and res.kkt is not None
            and inst.poly.contains(res.x, tol=1e-7)):
        return res.status.value, True, res.kkt.residual_inf
    return res.status.value, False, None


def bnb_outcome(inst) -> tuple[str, bool]:
    try:
        res = solve_bnb(inst, BnbOptions(node_limit=BNB_NODE_LIMIT))
    except TYPED_ERRORS as err:
        return type(err).__name__, False
    except Exception as err:  # counted, so the run goes on
        return f"untyped {type(err).__name__}", False
    if res.status in BNB_SOLVED:
        x = res.incumbent_x
        ok = (x is not None and inst.poly.contains(x, tol=1e-7)
              and bool(np.all(np.abs(x - np.round(x)) <= 1e-5)))
        return res.status.value, ok
    return res.status.value, False


def category(outcome: str, certified: bool) -> str:
    if certified:
        return "certified"
    if outcome in SOLVED_NAMES:
        return "solved without certificate"
    return outcome


def main(out_path: str) -> None:
    results: dict[str, list[dict]] = {"solve_cd": [], "solve_bisection": [],
                                      "solve_bnb": []}
    for i in range(SIZE):
        params = corpus_params(i)
        inst = bad_instance(**params)
        for name, solver in (("solve_cd", solve_cd),
                             ("solve_bisection", solve_bisection)):
            outcome, ok, resid = convex_outcome(inst, solver)
            results[name].append({"i": i, "outcome": outcome, "certified": ok,
                                  "residual_inf": resid})
        if i < BNB_SIZE:
            outcome, ok = bnb_outcome(bad_instance(**params, discrete=True))
            results["solve_bnb"].append({"i": i, "outcome": outcome,
                                         "certified": ok})
    with open(out_path, "w") as fh:
        json.dump({"params": [corpus_params(i) for i in range(SIZE)],
                   "outcomes": results}, fh, indent=1)

    counts = {name: Counter(category(r["outcome"], r["certified"]) for r in rows)
              for name, rows in results.items()}
    columns = ["certified"] + sorted(set().union(*counts.values()) - {"certified"})
    print("| driver | " + " | ".join(columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for name, row in counts.items():
        cells = " | ".join(str(row[c]) if row[c] else "" for c in columns)
        print(f"| `{name}` ({len(results[name])}) | {cells} |")
    print(f"certified total: {sum(row['certified'] for row in counts.values())}")
    for name in ("solve_cd", "solve_bisection"):
        rows = [r for r in results[name] if r["certified"]]
        if rows:
            worst = max(rows, key=lambda r: r["residual_inf"])
            above = sum(r["residual_inf"] > 1e-5 for r in rows)
            print(f"{name}: largest certified residual_inf "
                  f"{worst['residual_inf']:.3g} (instance {worst['i']}), "
                  f"{above} above 1e-5")


def compare(old_path: str, new_path: str) -> int:
    """Print how the outcomes in ``new_path`` differ from those in
    ``old_path``, per driver; returns the number of certificates lost."""
    old, new = (json.loads(Path(path).read_text()) for path in (old_path, new_path))
    if old["params"] != new["params"]:
        sys.exit("the two files hold different corpora")
    lost_total = 0
    for name, rows in old["outcomes"].items():
        pairs = list(zip(rows, new["outcomes"][name]))
        lost = [a["i"] for a, b in pairs if a["certified"] and not b["certified"]]
        gained = [a["i"] for a, b in pairs if b["certified"] and not a["certified"]]
        changed = [(a["i"], category(a["outcome"], a["certified"]),
                    category(b["outcome"], b["certified"])) for a, b in pairs]
        changed = [row for row in changed if row[1] != row[2]]
        print(f"{name}: {len(lost)} lost, {len(gained)} gained, "
              f"{len(changed)} changed")
        print(f"  lost: {lost}")
        print(f"  gained: {gained}")
        for i, before, after in changed:
            print(f"  {i}: {before} -> {after}")
        lost_total += len(lost)
    return lost_total


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(1 if compare(sys.argv[2], sys.argv[3]) else 0)
    if len(sys.argv) != 2:
        sys.exit("\n\n".join(__doc__.split("\n\n")[1:3]))
    main(sys.argv[1])
