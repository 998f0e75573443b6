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
integral when every integer variable is within ``INT_TOL`` of an integer;
one pass over the integer variables' distances to the nearest integer
answers both that test and the branching choice.
No presolve, cutting planes, or heuristics are applied.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import time
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .model import (
    ConicInstance,
    InfeasibleError,
    LpFailureError,
    SOLVED,
    SingularKktError,
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
    pick = _most_fractional(x, integer_vars)
    if pick is None:
        raise ValueError("branch_select called on an integral point")
    return pick


def _most_fractional(x: np.ndarray, integer_vars
                     ) -> tuple[int, float, float] | None:
    """``branch_select``'s choice, or None when x is integral: every
    integer variable within ``INT_TOL`` of an integer, by one pass over
    their distances to the nearest integer."""
    v = x[list(integer_vars)]
    dist = np.abs(v - np.round(v))
    best = np.max(dist, initial=0.0)
    if best <= INT_TOL:
        return None
    # integer_vars is sorted, so the lowest tied index wins; the maximum is
    # tied with itself, so there is always one
    j = int(integer_vars[np.argmax(dist >= best - BRANCH_TIE_TOL)])
    return j, math.floor(x[j]), math.ceil(x[j])


def _egap(ub: float, lb: float) -> float:
    if not math.isfinite(ub) or not math.isfinite(lb):
        return math.inf
    return (ub - lb) / abs(lb + 1e-10)


def _apply_bounds(inst: ConicInstance,
                  changes: tuple[tuple[int, float, float], ...]) -> ConicInstance:
    if not changes:
        return inst
    lower, upper = inst.poly.lower.copy(), inst.poly.upper.copy()
    for j, lo, hi in changes:
        lower[j], upper[j] = lo, hi
    return replace(inst, poly=replace(inst.poly, lower=lower, upper=upper))


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
    an integral point of it still becomes the incumbent when better, its
    children inherit the node's own bound, and a node that cannot be
    branched keeps that bound in the open bound.  A relaxation that raises
    ``SingularKktError`` or ``LpFailureError`` leaves its node open at the
    node's own bound (its parent's) and counts in ``uncertified_nodes``.
    If such nodes leave the gap open once the list empties, the status is
    Uncertified, also when no integral point was found.  A branching
    variable whose bounds are fractional may leave a child with an empty
    range; that child is not created.
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
    stuck_lb = math.inf  # lowest bound of the nodes held open unbranched

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
        except (InfeasibleError, SingularKktError, LpFailureError) as err:
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
            if isinstance(counts, InfeasibleError):
                out.infeasible_nodes += 1
            else:  # a failed relaxation bounds nothing: hold the node open
                out.uncertified_nodes += 1
                stuck_lb = min(stuck_lb, node.lb)
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
        pick = _most_fractional(res.x, inst.integer_vars)
        if pick is None:
            if z < out.incumbent_obj:
                out.incumbent_obj = z
                out.incumbent_x = res.x.copy()
            if not certified:
                stuck_lb = min(stuck_lb, node_lb)
            continue  # prune by integer feasibility
        j, fl, cl = pick
        v = float(res.x[j])
        ranges = ((float(sub.poly.lower[j]), float(fl)),
                  (float(cl), float(sub.poly.upper[j])))
        # dive into the child whose new bound is violated least (the floor
        # child on near-ties, so the dive order is stable against noise)
        if (v - fl) - (cl - v) > BRANCH_TIE_TOL:
            ranges = ranges[::-1]
        # a fractional bound can leave a child no range; none left closes
        # the node
        children = [BnbNode(bound_changes=node.bound_changes + ((j, lo, hi),),
                            basis=res.basis, t_parent=res.t, lb=node_lb,
                            depth=node.depth + 1)
                    for lo, hi in ranges if lo <= hi]
        if children:
            next_node = children[0]
        for sibling in children[1:]:
            heapq.heappush(heap, (sibling.lb, next(counter), sibling))

    out.best_bound = open_bound()
    out.egap = _egap(out.incumbent_obj, out.best_bound)
    if out.status == BnbStatus.OPTIMAL:
        if out.best_bound < out.incumbent_obj:
            # unbranchable uncertified and failed nodes stay open
            out.status = (BnbStatus.GAP_REACHED if out.egap <= opts.gap_tol
                          else BnbStatus.UNCERTIFIED)
        elif out.incumbent_x is None:
            out.status = BnbStatus.INFEASIBLE
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


def _unit_flow_paths(poly):
    """Every source-to-sink path of the unit flow {Ax = b}, as the columns
    it uses, read from ``A`` and ``b`` alone.

    Each column is an arc: its +1 row is its tail and its -1 row its head,
    and row m, left out of ``A``, is the sink; ``b`` is the unit vector of
    the source.  The paths come depth first, each node's arcs in column
    order.  Raises ``ValueError`` when ``A`` or ``b`` is not of that form,
    when the arc graph has a cycle (a 0/1 unit flow on it need not be a
    path), or when there are more than 2^20 paths.
    """
    A, b = poly.A, poly.b
    m = poly.m
    plus, minus = A == 1.0, A == -1.0
    tail = np.where(plus.any(axis=0), plus.argmax(axis=0), m)
    head = np.where(minus.any(axis=0), minus.argmax(axis=0), m)
    if (not (plus | minus | (A == 0.0)).all() or (plus.sum(axis=0) > 1).any()
            or (minus.sum(axis=0) > 1).any() or (tail == head).any()
            or not ((b == 0.0) | (b == 1.0)).all() or np.sum(b) != 1.0):
        raise ValueError("not a unit-flow instance on a graph")
    out: list[list[int]] = [[] for _ in range(m + 1)]
    indegree = np.bincount(head, minlength=m + 1)
    for k, u in enumerate(tail.tolist()):
        out[u].append(k)
    order = [v for v in range(m + 1) if indegree[v] == 0]
    for v in order:  # Kahn's topological sort; order grows as it runs
        for k in out[v]:
            indegree[head[k]] -= 1
            if indegree[head[k]] == 0:
                order.append(int(head[k]))
    if len(order) <= m:
        raise ValueError("the arc graph has a cycle")
    paths = [0] * m + [1]  # paths from each node to the sink
    for v in reversed(order):
        if v != m:
            paths[v] = sum(paths[head[k]] for k in out[v])
    source = int(np.argmax(b))
    if paths[source] > 2 ** 20:
        raise ValueError("instance too large to enumerate")
    stack = [(source, [])]
    while stack:
        v, chosen = stack.pop()
        if v == m:
            yield chosen
            continue
        for k in reversed(out[v]):
            stack.append((int(head[k]), chosen + [k]))


def enumeration_oracle(inst: ConicInstance) -> tuple[np.ndarray, float]:
    """Brute-force optimum of a small binary instance by direct evaluation.

    Handles the cardinality polytope (all supports of size b that the
    variable bounds allow), grid path polytopes (all source-to-sink paths,
    read from ``A`` and ``b`` by ``_unit_flow_paths``, whatever the column
    order), and as a fallback any binary instance with at most 2^20
    candidate points.  Every variable must be integer with bounds within
    [0, 1], else it raises ``ValueError``, as it does for a grid instance
    whose ``A`` is no acyclic unit flow.  Raises ``InfeasibleError`` when no
    binary point is feasible.
    """
    if not inst.integer_vars or len(inst.integer_vars) != inst.n:
        raise ValueError("enumeration oracle requires a fully binary instance")
    if (inst.poly.lower < 0.0).any() or (inst.poly.upper > 1.0).any():
        raise ValueError("enumeration oracle requires bounds within [0, 1]")
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
        no_one = inst.poly.upper < 1.0 - 1e-9
        no_zero = inst.poly.lower > 1e-9
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

    if (inst.meta or {}).get("family") == "gridpath":
        for path in _unit_flow_paths(inst.poly):
            x = np.zeros(n)
            x[path] = 1.0
            if inst.poly.contains(x, tol=1e-9):
                consider(x)
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
