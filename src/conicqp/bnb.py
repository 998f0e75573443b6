"""Branch-and-bound for the integer-restricted conic quadratic problem.

Nodes carry bound changes relative to the root, the parent's optimal basis,
and the parent's scale t; relaxations are solved to optimality by
coordinate descent, dual-starting the first QP of each non-root node from
the parent basis.  Only a certified relaxation (any status but IterLimit)
prunes a node or bounds its children; an uncertified one is a feasible
point whose value bounds the node from above only.  Branching uses the
maximum-infeasibility rule (the variable farthest from an integer, lowest
index on ties), the child violating its new bound by the least amount is
processed next, and the sibling joins a best-bound list.  No presolve,
cutting planes, or heuristics are applied.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    ConicInstance,
    InfeasibleError,
    Polyhedron,
    SolveStatus,
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
    gap_tol: float = 1e-4
    int_tol: float = 1e-5
    time_limit: float | None = None
    node_limit: int | None = None
    use_warm_starts: bool = True
    log_stride: int = 0
    log_fn: object = print


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


BRANCH_TIE_TOL = 1e-6


def branch_select(x: np.ndarray, integer_vars, int_tol: float = 1e-5
                  ) -> tuple[int, float, float]:
    """Maximum-infeasibility branching variable with its floor/ceil values.

    Picks the integer variable whose value is farthest from an integer;
    scores within BRANCH_TIE_TOL of the maximum count as tied and the lowest
    index wins, so the choice is stable against solver-level noise in x.
    Raises if every integer variable is within ``int_tol`` of an integer.
    """
    best_d = int_tol
    scores: list[tuple[int, float]] = []
    for j in integer_vars:
        v = float(x[j])
        frac = v - math.floor(v)
        d = min(frac, 1.0 - frac)
        scores.append((int(j), d))
        if d > best_d:
            best_d = d
    if best_d <= int_tol:
        raise ValueError("branch_select called on an integral point")
    for j, d in scores:  # integer_vars is sorted, so lowest tied index wins
        if d >= best_d - BRANCH_TIE_TOL:
            v = float(x[j])
            return j, math.floor(v), math.ceil(v)
    raise AssertionError("unreachable")


def _is_integral(x: np.ndarray, integer_vars, int_tol: float) -> bool:
    v = x[list(integer_vars)]
    return bool(np.max(np.abs(v - np.round(v)), initial=0.0) <= int_tol)


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
    at that point).

    A node relaxation that stops at its iteration limit is not certified:
    it never prunes, an integral point of it still becomes the incumbent
    when better, its children inherit the node's own bound, and a node
    that cannot be branched keeps that bound in the open bound.  If such
    nodes leave the gap open once the list empties, the status is
    Uncertified.
    """
    opts = opts or BnbOptions()
    if not inst.integer_vars:
        raise ValueError("instance has no integer variables")
    start = time.monotonic()

    ub = math.inf
    x_star: np.ndarray | None = None
    counter = itertools.count()
    heap: list[tuple[float, int, BnbNode]] = []
    root = BnbNode(bound_changes=(), basis=None, t_parent=None,
                   lb=-math.inf, depth=0)
    heapq.heappush(heap, (root.lb, next(counter), root))
    next_node: BnbNode | None = None
    stuck_lb = math.inf  # lowest bound of the unbranchable uncertified nodes

    nodes = qp_count = pivot_count = 0
    warm_accepts = warm_repairs = infeasible_nodes = uncertified_nodes = 0
    status = BnbStatus.OPTIMAL

    def open_bound() -> float:
        lb = min(heap[0][0] if heap else math.inf, stuck_lb)
        if next_node is not None:
            lb = min(lb, next_node.lb)
        return min(lb, ub)

    while heap or next_node is not None:
        gap = _egap(ub, open_bound())
        if gap <= opts.gap_tol:
            status = BnbStatus.GAP_REACHED
            break
        if opts.time_limit is not None and time.monotonic() - start > opts.time_limit:
            status = BnbStatus.TIME_LIMIT
            break
        if opts.node_limit is not None and nodes >= opts.node_limit:
            status = BnbStatus.TIME_LIMIT
            break
        if next_node is not None:
            node, next_node = next_node, None
        else:
            _, _, node = heapq.heappop(heap)
        if node.lb >= ub:
            continue
        sub = _apply_bounds(inst, node.bound_changes)
        warm = None
        if opts.use_warm_starts and node.basis is not None:
            warm = (node.basis, node.t_parent)
        try:
            res = solve_cd(sub, _NODE_CD, warm=warm)
        except InfeasibleError as err:
            nodes += 1
            infeasible_nodes += 1
            qp_count += getattr(err, "qp_count", 0)
            pivot_count += getattr(err, "pivot_count", 0)
            if warm is not None:
                if getattr(err, "first_qp_used_phase1", True):
                    warm_repairs += 1
                else:
                    warm_accepts += 1
            continue
        nodes += 1
        qp_count += res.qp_count
        pivot_count += res.pivot_count
        if warm is not None:
            if res.first_qp_used_phase1:
                warm_repairs += 1
            else:
                warm_accepts += 1
        z = res.objective
        certified = res.status != SolveStatus.ITER_LIMIT
        # z bounds the node's subtree from below only when certified
        node_lb = z if certified else node.lb
        uncertified_nodes += not certified
        if opts.log_stride and nodes % opts.log_stride == 0:
            # the solved node is no longer in the open list, but its subtree
            # is still bounded below by node_lb, so count it in the bound
            lb_now = min(open_bound(), node_lb)
            opts.log_fn(
                f"node={nodes} ub={ub:.9g} lb={lb_now:.9g} "
                f"gap={_egap(ub, lb_now):.3e} depth={node.depth}"
            )
        if certified and z >= ub:
            continue  # prune by bound
        if _is_integral(res.x, inst.integer_vars, opts.int_tol):
            if z < ub:
                ub = z
                x_star = res.x.copy()
            if not certified:
                stuck_lb = min(stuck_lb, node_lb)
            continue  # prune by integer feasibility
        j, fl, cl = branch_select(res.x, inst.integer_vars, opts.int_tol)
        v = float(res.x[j])
        lo_j = float(sub.poly.lower[j])
        hi_j = float(sub.poly.upper[j])
        child_le = BnbNode(
            bound_changes=node.bound_changes + ((j, lo_j, float(fl)),),
            basis=res.basis, t_parent=res.t, lb=node_lb, depth=node.depth + 1)
        child_ge = BnbNode(
            bound_changes=node.bound_changes + ((j, float(cl), hi_j),),
            basis=res.basis, t_parent=res.t, lb=node_lb, depth=node.depth + 1)
        # dive into the child whose new bound is violated least (the floor
        # child on near-ties, so the dive order is stable against noise)
        if (v - fl) - (cl - v) <= BRANCH_TIE_TOL:
            next_node, sibling = child_le, child_ge
        else:
            next_node, sibling = child_ge, child_le
        heapq.heappush(heap, (sibling.lb, next(counter), sibling))

    best_bound = open_bound()
    egap = _egap(ub, best_bound)
    if status == BnbStatus.OPTIMAL:
        if x_star is None:
            status = BnbStatus.INFEASIBLE
        elif best_bound < ub:  # unbranchable uncertified nodes stay open
            status = (BnbStatus.GAP_REACHED if egap <= opts.gap_tol
                      else BnbStatus.UNCERTIFIED)
        else:
            egap = 0.0
    return BnbResult(
        incumbent_x=x_star, incumbent_obj=ub, best_bound=best_bound,
        nodes_processed=nodes, status=status, egap=egap, qp_count=qp_count,
        pivot_count=pivot_count, warm_accepts=warm_accepts,
        warm_repairs=warm_repairs, infeasible_nodes=infeasible_nodes,
        uncertified_nodes=uncertified_nodes,
    )


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

    Handles the cardinality polytope (all supports of size b), grid path
    polytopes (all monotone source-to-sink paths), and as a fallback any
    binary instance with at most 2^20 candidate points.
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
        if math.comb(n, b) > 2 ** 20:
            raise ValueError("instance too large to enumerate")
        x = np.zeros(n)
        for support in itertools.combinations(range(n), b):
            x[:] = 0.0
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
