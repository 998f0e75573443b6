"""Branch-and-bound for the integer-restricted conic quadratic problem.

Nodes carry bound changes relative to the root, the parent's optimal basis,
and the parent's scale t; relaxations are solved to optimality by
coordinate descent, dual-starting the first QP of each non-root node from
the parent basis.  Only a certified relaxation (a status in ``SOLVED``)
prunes a node or bounds its children; an uncertified one is a point whose
value bounds the node from above only.  Branching uses the
maximum-infeasibility rule (the variable farthest from an integer, lowest
index on ties), the child violating its new bound by the least amount is
processed next, and the sibling joins a best-bound list.  A point is
integral when every integer variable is within ``INT_TOL`` of an integer.
No presolve, cutting planes, or heuristics are applied.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    ConicInstance,
    InfeasibleError,
    Polyhedron,
    SOLVED,
    eval_objective,
)
from .solvers import CdOptions, solve_cd
from .qp import WorkingBasis


class BnbStatus(Enum):
    OPTIMAL = "Optimal"
    GAP_REACHED = "GapReached"
    TIME_LIMIT = "TimeLimit"
    INFEASIBLE = "Infeasible"
    UNCERTIFIED = "Uncertified"  # uncertified relaxations hold the gap open


# the statuses of a solved tree, as ``SOLVED`` lists a convex solve's
BNB_SOLVED = (BnbStatus.OPTIMAL, BnbStatus.GAP_REACHED)


@dataclass
class BnbNode:
    """One subproblem: bound deltas from the root plus warm-start data."""

    bound_changes: tuple[tuple[int, float, float], ...]
    basis: WorkingBasis | None
    t_parent: float | None
    lb: float
    depth: int = 0


@dataclass
class BnbOptions:
    """Tree options; ``log_stride=k`` logs a progress line every k nodes."""

    gap_tol: float = 1e-4
    time_limit: float | None = None
    node_limit: int | None = None
    use_warm_starts: bool = True
    log_stride: int = 0


# node relaxations are solved to (near) full optimality so that branching
# decisions, and hence the search tree, do not depend on warm-start paths
_NODE_CD = CdOptions(delta=1e-10, qp_eps=1e-12)


@dataclass
class BnbResult:
    incumbent_x: np.ndarray | None
    incumbent_obj: float
    best_bound: float
    nodes_processed: int
    status: BnbStatus
    egap: float
    qp_count: int = 0
    pivot_count: int = 0
    warm_accepts: int = 0
    warm_repairs: int = 0
    infeasible_nodes: int = 0
    uncertified_nodes: int = 0
    jumps_tried: int = 0  # the node relaxations' fixed-point jumps
    jumps_taken: int = 0


INT_TOL = 1e-5
BRANCH_TIE_TOL = 1e-6

_log = logging.getLogger(__name__)


def branch_select(x: np.ndarray, integer_vars) -> tuple[int, float, float]:
    """Maximum-infeasibility branching variable with its floor/ceil values.

    Picks the integer variable whose value is farthest from an integer;
    scores within BRANCH_TIE_TOL of the maximum count as tied and the lowest
    index wins, so the choice is stable against solver-level noise in x.
    Raises if every integer variable is within ``INT_TOL`` of an integer.
    """
    best_d = INT_TOL
    scores: list[tuple[int, float]] = []
    for j in integer_vars:
        v = float(x[j])
        frac = v - math.floor(v)
        d = min(frac, 1.0 - frac)
        scores.append((int(j), d))
        if d > best_d:
            best_d = d
    if best_d <= INT_TOL:
        raise ValueError("branch_select called on an integral point")
    # integer_vars is sorted, so the lowest tied index wins; the maximum is
    # tied with itself, so there is always one
    j = next(j for j, d in scores if d >= best_d - BRANCH_TIE_TOL)
    v = float(x[j])
    return j, math.floor(v), math.ceil(v)


def _is_integral(x: np.ndarray, integer_vars) -> bool:
    v = x[list(integer_vars)]
    return bool(np.max(np.abs(v - np.round(v)), initial=0.0) <= INT_TOL)


def _egap(ub: float, lb: float) -> float:
    if not math.isfinite(ub) or not math.isfinite(lb):
        return math.inf
    return (ub - lb) / abs(lb + 1e-10)


def _apply_bounds(inst: ConicInstance,
                  changes: tuple[tuple[int, float, float], ...]) -> ConicInstance:
    if not changes:
        return inst
    lower = inst.poly.lower.copy()
    upper = inst.poly.upper.copy()
    for j, lo, hi in changes:
        lower[j], upper[j] = lo, hi
    poly = Polyhedron(A=inst.poly.A, b=inst.poly.b, lower=lower, upper=upper)
    return ConicInstance(c=inst.c, omega=inst.omega, q=inst.q, poly=poly,
                         integer_vars=inst.integer_vars, meta=inst.meta)


def solve_bnb(inst: ConicInstance, opts: BnbOptions | None = None) -> BnbResult:
    """Best-bound branch-and-bound with child-first dives and dual warm starts.

    Terminates when (ub - lb_best) / |lb_best + 1e-10| <= gap_tol, when the
    node list empties (status Infeasible if no node gave an integral
    point), or when a time/node limit trips (status TimeLimit with the gap
    at that point).  Every ``opts.log_stride`` nodes it logs the line
    ``node=k ub=v lb=v gap=v depth=d`` on the ``conicqp.bnb`` logger at INFO
    level.

    A node relaxation that stops at its iteration limit, or without a KKT
    certificate (status Uncertified), is not certified: it never prunes,
    an integral point of it still becomes the incumbent when better, its children inherit the node's own bound, and a node
    that cannot be branched keeps that bound in the open bound.  If such
    nodes leave the gap open once the list empties, the status is
    Uncertified.
    """
    opts = opts or BnbOptions()
    if not inst.integer_vars:
        raise ValueError("instance has no integer variables")
    start = time.monotonic()

    # the incumbent and every count live on the result from the start
    out = BnbResult(incumbent_x=None, incumbent_obj=math.inf,
                    best_bound=-math.inf, nodes_processed=0,
                    status=BnbStatus.OPTIMAL, egap=math.inf)
    counter = itertools.count()
    heap: list[tuple[float, int, BnbNode]] = []
    root = BnbNode(bound_changes=(), basis=None, t_parent=None,
                   lb=-math.inf, depth=0)
    heapq.heappush(heap, (root.lb, next(counter), root))
    next_node: BnbNode | None = None
    stuck_lb = math.inf  # lowest bound of the unbranchable uncertified nodes

    def open_bound() -> float:
        lb = min(heap[0][0] if heap else math.inf, stuck_lb)
        if next_node is not None:
            lb = min(lb, next_node.lb)
        return min(lb, out.incumbent_obj)

    while heap or next_node is not None:
        if _egap(out.incumbent_obj, open_bound()) <= opts.gap_tol:
            out.status = BnbStatus.GAP_REACHED
            break
        if ((opts.time_limit is not None
             and time.monotonic() - start > opts.time_limit)
                or (opts.node_limit is not None
                    and out.nodes_processed >= opts.node_limit)):
            out.status = BnbStatus.TIME_LIMIT
            break
        if next_node is not None:
            node, next_node = next_node, None
        else:
            _, _, node = heapq.heappop(heap)
        if node.lb >= out.incumbent_obj:
            continue
        sub = _apply_bounds(inst, node.bound_changes)
        warm = None
        if opts.use_warm_starts and node.basis is not None:
            warm = (node.basis, node.t_parent)
        try:
            res = counts = solve_cd(sub, _NODE_CD, warm=warm)
        except InfeasibleError as err:
            res, counts = None, err  # the error carries the same counts
        out.nodes_processed += 1
        out.qp_count += counts.qp_count
        out.pivot_count += counts.pivot_count
        out.jumps_tried += counts.jumps_tried
        out.jumps_taken += counts.jumps_taken
        if warm is not None:
            if counts.first_qp_used_phase1:
                out.warm_repairs += 1
            else:
                out.warm_accepts += 1
        if res is None:
            out.infeasible_nodes += 1
            continue
        z = res.objective
        certified = res.status in SOLVED
        # z bounds the node's subtree from below only when certified
        node_lb = z if certified else node.lb
        out.uncertified_nodes += not certified
        if opts.log_stride and out.nodes_processed % opts.log_stride == 0:
            # the solved node is no longer in the open list, but its subtree
            # is still bounded below by node_lb, so count it in the bound
            lb_now = min(open_bound(), node_lb)
            _log.info("node=%d ub=%.9g lb=%.9g gap=%.3e depth=%d",
                      out.nodes_processed, out.incumbent_obj, lb_now,
                      _egap(out.incumbent_obj, lb_now), node.depth)
        if certified and z >= out.incumbent_obj:
            continue  # prune by bound
        if _is_integral(res.x, inst.integer_vars):
            if z < out.incumbent_obj:
                out.incumbent_obj = z
                out.incumbent_x = res.x.copy()
            if not certified:
                stuck_lb = min(stuck_lb, node_lb)
            continue  # prune by integer feasibility
        j, fl, cl = branch_select(res.x, inst.integer_vars)
        v = float(res.x[j])
        child_le, child_ge = (
            BnbNode(bound_changes=node.bound_changes + ((j, lo, hi),),
                    basis=res.basis, t_parent=res.t, lb=node_lb,
                    depth=node.depth + 1)
            for lo, hi in ((float(sub.poly.lower[j]), float(fl)),
                           (float(cl), float(sub.poly.upper[j]))))
        # dive into the child whose new bound is violated least (the floor
        # child on near-ties, so the dive order is stable against noise)
        if (v - fl) - (cl - v) <= BRANCH_TIE_TOL:
            next_node, sibling = child_le, child_ge
        else:
            next_node, sibling = child_ge, child_le
        heapq.heappush(heap, (sibling.lb, next(counter), sibling))

    out.best_bound = open_bound()
    out.egap = _egap(out.incumbent_obj, out.best_bound)
    if out.status == BnbStatus.OPTIMAL:
        if out.incumbent_x is None:
            out.status = BnbStatus.INFEASIBLE
        elif out.best_bound < out.incumbent_obj:
            # unbranchable uncertified nodes stay open
            out.status = (BnbStatus.GAP_REACHED if out.egap <= opts.gap_tol
                          else BnbStatus.UNCERTIFIED)
        else:
            out.egap = 0.0
    return out


def _cardinality_supports(inst: ConicInstance) -> int | None:
    """b for a pure cardinality constraint sum(x) = b over binaries, else None."""
    poly = inst.poly
    if poly.m != 1 or not np.allclose(poly.A, 1.0):
        return None
    b = poly.b[0]
    if abs(b - round(b)) > 1e-9:
        return None
    return int(round(b))


def enumeration_oracle(inst: ConicInstance) -> tuple[np.ndarray, float]:
    """Brute-force optimum of a small binary instance by direct evaluation.

    Handles the cardinality polytope (all supports of size b that the
    variable bounds allow), grid path polytopes (all monotone source-to-sink
    paths), and as a fallback any binary instance with at most 2^20
    candidate points.  Raises ``InfeasibleError`` when no binary point is
    feasible.
    """
    if not inst.integer_vars or len(inst.integer_vars) != inst.n:
        raise ValueError("enumeration oracle requires a fully binary instance")
    n = inst.n
    best_x, best_obj = None, math.inf

    def consider(x: np.ndarray):
        nonlocal best_x, best_obj
        v = eval_objective(inst, x)
        if v < best_obj:
            best_x, best_obj = x.copy(), v

    b = _cardinality_supports(inst)
    if b is not None:
        # a variable whose bounds exclude 1 stays out, one whose bounds
        # exclude 0 is in, and the rest fill the support up to b
        lo, up = inst.poly.lower, inst.poly.upper
        no_one = (lo > 1.0 + 1e-9) | (up < 1.0 - 1e-9)
        no_zero = (lo > 1e-9) | (up < -1e-9)
        rest = np.flatnonzero(~no_one & ~no_zero).tolist()
        k = b - int(np.count_nonzero(no_zero))
        if np.any(no_one & no_zero) or not 0 <= k <= len(rest):
            raise InfeasibleError("no binary point within the bounds has "
                                  "the cardinality")
        if math.comb(len(rest), k) > 2 ** 20:
            raise ValueError("instance too large to enumerate")
        base = no_zero.astype(float)
        x = base.copy()
        for support in itertools.combinations(rest, k):
            x[:] = base
            x[list(support)] = 1.0
            consider(x)
        return best_x, best_obj

    meta = inst.meta or {}
    if meta.get("family") == "gridpath":
        from .generate import grid_arcs

        p, q = int(meta["p"]), int(meta["q"])
        if math.comb(p + q - 2, p - 1) > 2 ** 20:
            raise ValueError("instance too large to enumerate")
        arcs = grid_arcs(p, q)
        arc_index = {a: k for k, a in enumerate(arcs)}
        sink = p * q - 1

        def walk(node: int, chosen: list[int]):
            if node == sink:
                x = np.zeros(n)
                x[chosen] = 1.0
                if inst.poly.contains(x, tol=1e-9):
                    consider(x)
                return
            i, j = divmod(node, q)
            if j + 1 < q:
                nxt = node + 1
                walk(nxt, chosen + [arc_index[(node, nxt)]])
            if i + 1 < p:
                nxt = node + q
                walk(nxt, chosen + [arc_index[(node, nxt)]])

        walk(0, [])
        if best_x is None:
            raise InfeasibleError("no feasible path in the grid instance")
        return best_x, best_obj

    if 2 ** n > 2 ** 20:
        raise ValueError("instance too large to enumerate")
    scale = 1.0 + float(np.max(np.abs(inst.poly.b), initial=0.0))
    for bits in itertools.product((0.0, 1.0), repeat=n):
        x = np.array(bits)
        if np.any(x < inst.poly.lower - 1e-9) or np.any(x > inst.poly.upper + 1e-9):
            continue
        if inst.poly.m and np.max(np.abs(inst.poly.A @ x - inst.poly.b)) > 1e-7 * scale:
            continue
        consider(x)
    if best_x is None:
        raise InfeasibleError("no feasible binary point")
    return best_x, best_obj
