"""Correctness gate applied to every solve the benchmark times.

* A convex instance is solved by ``solve_cd`` and ``solve_bisection``.  Each
  of the two solves passes only if its status is Optimal or
  ToleranceReached, its KKT certificate recomputes to a stationarity
  residual of at most 1e-5 at its point, and the two objectives agree
  within 1e-5 relative.
* A branch-and-bound solve passes only if it ends Optimal or GapReached
  with an incumbent within 1e-4 relative of the enumeration optimum.

The gate never raises on a bad result; it returns the reasons it failed.
"""

from __future__ import annotations

import copy
from dataclasses import replace

from conicqp import (
    BnbStatus,
    ConicInstance,
    ConicSolveResult,
    SolveStatus,
    ZeroQuadraticError,
    kkt_residual,
)

KKT_TOL = 1e-5      # acceptance criterion 2
AGREE_TOL = 1e-5    # acceptance criterion 1
BNB_TOL = 1e-4      # acceptance criterion 7

_CONVEX_OK = (SolveStatus.OPTIMAL, SolveStatus.TOLERANCE_REACHED)
_BNB_OK = (BnbStatus.OPTIMAL, BnbStatus.GAP_REACHED)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-10)


def convex_faults(inst: ConicInstance, res: ConicSolveResult,
                  other: ConicSolveResult) -> list[str]:
    """Reasons ``res`` fails the gate; ``other`` is the second driver's result."""
    faults = []
    if res.status not in _CONVEX_OK:
        faults.append(f"status {res.status.value}")
    if res.kkt is None:
        faults.append("no KKT certificate")
    else:
        try:
            resid = kkt_residual(inst, res.x, copy.copy(res.kkt))
        except (ZeroQuadraticError, ValueError) as exc:
            faults.append(f"certificate does not evaluate: {exc}")
        else:
            if not resid <= KKT_TOL:
                faults.append(f"KKT residual {resid:.2e} > {KKT_TOL:g}")
    gap = _rel(res.objective, other.objective)
    if not gap <= AGREE_TOL:
        faults.append(f"cd/bisection objectives differ by {gap:.2e} relative")
    return faults


def bnb_faults(res, oracle: float) -> list[str]:
    faults = []
    if res.status not in _BNB_OK:
        faults.append(f"status {res.status.value}")
    gap = abs(res.incumbent_obj - oracle) / abs(oracle + 1e-10)
    if not gap <= BNB_TOL:
        faults.append(f"incumbent {res.incumbent_obj!r} is {gap:.2e} from "
                      f"enumeration {oracle!r}")
    return faults


def self_test(inst: ConicInstance, res, oracle: float | None) -> list[str]:
    """Check that the gate passes ``res`` and fails doctored copies of it.

    ``res`` is a verified-good result on ``inst`` (the run's warm-up solve).
    For a convex result it stands in for both drivers; doctoring perturbs
    one objective by 1e-4 relative or drops the certificate.  For a
    branch-and-bound result the incumbent value is perturbed.
    """
    problems = []
    if oracle is None:
        if convex_faults(inst, res, res):
            problems.append("gate rejects a good convex result")
        bumped = replace(res, objective=res.objective * (1 + 1e-4))
        if not convex_faults(inst, bumped, res):
            problems.append("gate accepts a perturbed objective")
        if not convex_faults(inst, replace(res, kkt=None), res):
            problems.append("gate accepts a missing certificate")
    else:
        if bnb_faults(res, oracle):
            problems.append("gate rejects a good branch-and-bound result")
        bumped = replace(res, incumbent_obj=res.incumbent_obj
                         + 1e-3 * max(abs(res.incumbent_obj), 1.0))
        if not bnb_faults(bumped, oracle):
            problems.append("gate accepts a perturbed incumbent")
    return problems
