"""Outer loops that minimize the perspective objective by driving the scale t.

Two drivers share the QP engine:

* ``solve_cd`` alternates an exact QP solve in x at fixed t with the closed
  form update t = sqrt(x'Qx), warm-starting every QP from the previous basis
  (primal start), or from a supplied basis via a dual start when resuming
  after bound changes.
* ``solve_bisection`` maintains a bracket [t_min, t_max] around the
  minimizer of the value function g(t), halving it at each midpoint QP and
  shrinking it further with the monotone update t1 = sqrt(x0'Qx0).

Both report a KKT certificate for the conic problem, with the dual
feasibility estimate qp_eps + (|dt|/t) * ||grad f||_inf as the convergence
measure.  Both start, unless given a starting t, from the LP relaxation,
which HiGHS solves once (``solve_lp``); ``qp_count``, ``qp_pivots``,
``pivot_count`` and ``phase1_count`` count the engine's QPs only.  An LP
that HiGHS leaves without an optimal vertex raises ``LpFailureError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ConicInstance,
    ConicSolveResult,
    InfeasibleError,
    KktCertificate,
    SolveStatus,
    ZeroQuadraticError,
    dual_bound_estimate,
    eval_objective,
    grad_f,
    kkt_residual,
    subproblem_objective,
)
from .qp import QpSolution, QpStatus, StartMode, WorkingBasis, solve_lp, solve_qp

T_FLOOR = 1e-10


@dataclass
class CdOptions:
    """Coordinate-descent options; ``t0=None`` means "solve the LP first"."""

    t0: float | None = None
    delta: float = 1e-5
    qp_eps: float = 1e-9
    max_outer: int = 1000
    t_floor: float = T_FLOOR

    def __post_init__(self):
        if self.t0 is not None and not self.t0 > 0:
            raise ValueError("t0 must be positive (or None for the LP start)")
        if not self.delta > self.qp_eps:
            raise ValueError("delta must exceed the engine tolerance qp_eps")


@dataclass
class BisectOptions:
    t_min0: float = 0.0
    t_max0: float | None = None
    gap_tol: float = 1e-6
    delta: float = 1e-5
    qp_eps: float = 1e-9
    max_outer: int = 200

    def __post_init__(self):
        if self.t_min0 < 0:
            raise ValueError("t_min0 must be nonnegative")
        if self.t_max0 is not None and self.t_max0 < self.t_min0:
            raise ValueError("t_max0 must be at least t_min0")


def _lp_relaxation(inst: ConicInstance) -> QpSolution:
    """Optimal LP vertex (t -> inf), solved by HiGHS and not counted as a QP."""
    return solve_lp(subproblem_objective(inst, math.inf))


def init_tmax_from_lp(inst: ConicInstance) -> tuple[float, WorkingBasis]:
    """Upper bracket sqrt(x_LP' Q x_LP) from the LP relaxation, plus its basis.

    The LP point minimizes the linear part alone (the t -> inf limit of the
    subproblem), so by the monotonicity of the t-updates its risk value
    bounds the optimal t from above.
    """
    sol = _lp_relaxation(inst)
    return math.sqrt(max(inst.q.quad(sol.x), 0.0)), sol.basis


def _statuses(sol: QpSolution | None) -> WorkingBasis | None:
    """The final basis without its KKT factor: a held result keeps statuses
    only, and a later warm start from it builds its own factor."""
    return WorkingBasis(sol.basis.status) if sol is not None else None


def _certificate(inst: ConicInstance, x: np.ndarray, sol: QpSolution) -> KktCertificate | None:
    cert = KktCertificate(lam=sol.lam, mu_lower=sol.mu_lower, mu_upper=sol.mu_upper)
    try:
        kkt_residual(inst, x, cert)
    except (ZeroQuadraticError, ValueError):
        return None
    return cert


def solve_cd(inst: ConicInstance, opt: CdOptions | None = None,
             warm: tuple[WorkingBasis, float] | None = None) -> ConicSolveResult:
    """Coordinate descent on the perspective reformulation.

    Stops when the dual-feasibility estimate drops below ``opt.delta``, when
    the relative t-change passes the simpler test |dt/t| <= (delta - eps)/k
    with k a running bound on ||grad f||, or when t collapses to (numerical)
    zero, in which case the current point is returned with status TZero.
    """
    opt = opt or CdOptions()
    trace: list[tuple[float, float]] = []
    qp_pivots: list[int] = []
    qp_count = 0
    phase1_count = 0
    first_qp_phase1 = False
    prev: QpSolution | None = None
    mode = StartMode.PRIMAL_START

    if warm is not None:
        basis, t_i = warm
        if not t_i > 0:
            raise ValueError("warm t must be positive")
        prev = None
        warm_basis: WorkingBasis | None = basis
        mode = StartMode.DUAL_START
    elif opt.t0 is None:
        lp = _lp_relaxation(inst)
        t_lp = math.sqrt(max(inst.q.quad(lp.x), 0.0))
        if t_lp < opt.t_floor:
            return ConicSolveResult(
                x=lp.x, t=t_lp, objective=eval_objective(inst, lp.x),
                kkt=None, qp_count=0, pivot_count=0, trace=trace,
                status=SolveStatus.T_ZERO, stop_reason="t_zero", basis=lp.basis,
            )
        t_i = t_lp
        prev = lp
        warm_basis = None
    else:
        t_i = float(opt.t0)
        warm_basis = None

    sol = prev
    x = prev.x if prev is not None else None
    status = SolveStatus.ITER_LIMIT
    stop_reason = "iter_limit"
    t_out = t_i
    grad_cap = 0.0  # running bound on ||grad f||_inf for the simpler stop test
    for _ in range(opt.max_outer):
        qp = subproblem_objective(inst, t_i)
        if prev is not None:
            sol = solve_qp(qp, warm=prev.basis, warm_x=prev.x)
        elif warm_basis is not None:
            sol = solve_qp(qp, warm=warm_basis, mode=mode)
            mode = StartMode.PRIMAL_START
        else:
            sol = solve_qp(qp)
        qp_count += 1
        qp_pivots.append(sol.iterations)
        phase1_count += int(sol.used_phase1)
        if qp_count == 1:
            first_qp_phase1 = sol.used_phase1
        if sol.status == QpStatus.INFEASIBLE:
            err = InfeasibleError("QP subproblem is infeasible")
            err.first_qp_used_phase1 = first_qp_phase1
            err.qp_count = qp_count
            err.pivot_count = sum(qp_pivots)
            raise err
        x = sol.x
        trace.append((t_i, sol.objective))
        if sol.status == QpStatus.ITER_LIMIT:
            status, stop_reason, t_out = SolveStatus.ITER_LIMIT, "qp_iter_limit", t_i
            break
        t_next = math.sqrt(max(inst.q.quad(x), 0.0))
        if t_next < opt.t_floor:
            status, stop_reason, t_out = SolveStatus.T_ZERO, "t_zero", t_next
            break
        rel = abs(t_next - t_i) / t_i
        try:
            est = dual_bound_estimate(inst, x, t_i, t_next, opt.qp_eps)
            grad_cap = max(grad_cap, float(np.max(np.abs(grad_f(inst, x)))))
        except ZeroQuadraticError:
            est = math.inf
        prev = sol
        t_i = t_next
        t_out = t_next
        if est <= opt.delta:
            status, stop_reason = SolveStatus.OPTIMAL, "dual_bound"
            break
        # the simpler test |dt/t| <= (delta - eps) / k, with k a bound on
        # ||grad f||; only decisive when the gradient itself is unavailable
        if grad_cap > 0 and rel <= (opt.delta - opt.qp_eps) / grad_cap:
            status, stop_reason = SolveStatus.TOLERANCE_REACHED, "t_rel_change"
            break

    kkt = None
    if status != SolveStatus.T_ZERO and sol is not None:
        kkt = _certificate(inst, x, sol)
    return ConicSolveResult(
        x=x.copy(), t=t_out, objective=eval_objective(inst, x), kkt=kkt,
        qp_count=qp_count, pivot_count=sum(qp_pivots), trace=trace,
        status=status, stop_reason=stop_reason, qp_pivots=qp_pivots,
        phase1_count=phase1_count, first_qp_used_phase1=first_qp_phase1,
        basis=_statuses(sol),
    )


def solve_bisection(inst: ConicInstance,
                    opt: BisectOptions | None = None) -> ConicSolveResult:
    """Accelerated bisection on the value function g(t).

    Each iteration solves the midpoint QP, then uses the monotone update
    t1 = sqrt(x0'Qx0) to move whichever end of the bracket t1 falls beyond,
    so the interval at least halves.  The incumbent is the best conic
    objective seen; a lower bound combines the linear part at the largest
    evaluated t with the risk part at the smallest, and the run stops once
    the relative gap closes and the incumbent's dual-feasibility estimate is
    within ``opt.delta`` (so every converged solve carries a certificate).
    """
    opt = opt or BisectOptions()
    trace: list[tuple[float, float]] = []
    interval_trace: list[tuple[float, float]] = []
    qp_pivots: list[int] = []
    qp_count = 0
    phase1_count = 0
    first_qp_phase1 = False

    t_min = float(opt.t_min0)
    prev: QpSolution | None = None
    x_low_side: np.ndarray | None = None   # x(t_m) with t_m <= t*
    x_high_side: np.ndarray | None = None  # x(t_M) with t_M >= t*
    incumbent_x = None
    incumbent_sol = None
    incumbent_obj = math.inf
    incumbent_est = math.inf

    if opt.t_max0 is None:
        lp = _lp_relaxation(inst)
        t_max = math.sqrt(max(inst.q.quad(lp.x), 0.0))
        x_high_side = lp.x  # the LP optimum plays x(t) for arbitrarily large t
        incumbent_x, incumbent_sol = lp.x, lp
        incumbent_obj = eval_objective(inst, lp.x)
        prev = lp
    else:
        t_max = float(opt.t_max0)

    if t_max < T_FLOOR:
        x0 = incumbent_x if incumbent_x is not None else _lp_relaxation(inst).x
        return ConicSolveResult(
            x=x0, t=math.sqrt(max(inst.q.quad(x0), 0.0)),
            objective=eval_objective(inst, x0), kkt=None, qp_count=qp_count,
            pivot_count=sum(qp_pivots), trace=trace, status=SolveStatus.T_ZERO,
            stop_reason="t_zero", qp_pivots=qp_pivots,
            phase1_count=phase1_count, first_qp_used_phase1=first_qp_phase1,
            basis=_statuses(incumbent_sol),
        )

    interval_trace.append((t_min, t_max))
    status = SolveStatus.ITER_LIMIT
    stop_reason = "iter_limit"
    for _ in range(opt.max_outer):
        t0 = 0.5 * (t_min + t_max)
        qp = subproblem_objective(inst, t0)
        sol = solve_qp(qp, warm=prev.basis, warm_x=prev.x) if prev is not None \
            else solve_qp(qp)
        qp_count += 1
        qp_pivots.append(sol.iterations)
        phase1_count += int(sol.used_phase1)
        if qp_count == 1:
            first_qp_phase1 = sol.used_phase1
        if sol.status == QpStatus.INFEASIBLE:
            raise InfeasibleError("QP subproblem is infeasible")
        if sol.status == QpStatus.ITER_LIMIT:
            stop_reason = "qp_iter_limit"
            break
        x0 = sol.x
        t1 = math.sqrt(max(inst.q.quad(x0), 0.0))
        if t1 < T_FLOOR:
            incumbent_x, incumbent_sol = x0, sol
            status, stop_reason = SolveStatus.T_ZERO, "t_zero"
            break
        if t0 <= t1:
            t_min = t1          # t0 was below the minimizer, and so is t1
            x_low_side = x0
        else:
            t_max = t1          # t0 was above the minimizer, and so is t1
            x_high_side = x0
        interval_trace.append((t_min, t_max))
        try:
            est = dual_bound_estimate(inst, x0, t0, t1, opt.qp_eps)
        except ZeroQuadraticError:
            est = math.inf
        z0 = eval_objective(inst, x0)
        if z0 <= incumbent_obj:
            incumbent_x, incumbent_obj, incumbent_sol = x0, z0, sol
            incumbent_est = est
        elif (incumbent_est > opt.delta and est <= opt.delta
              and z0 <= incumbent_obj + opt.gap_tol * max(abs(incumbent_obj), 1.0)):
            # the incumbent (typically the initial LP point) cannot be
            # certified; a certified midpoint tying within the gap tolerance
            # replaces it so the run can terminate with a certificate
            incumbent_x, incumbent_obj, incumbent_sol = x0, z0, sol
            incumbent_est = est
        trace.append((t0, incumbent_obj))
        z_lower = -math.inf
        if x_low_side is not None and x_high_side is not None:
            z_lower = float(inst.c @ x_high_side) + inst.omega * math.sqrt(
                max(inst.q.quad(x_low_side), 0.0))
        gap_ok = (incumbent_obj - z_lower) <= opt.gap_tol * max(abs(z_lower), 1.0)
        if incumbent_est <= opt.delta and (gap_ok or est <= opt.delta):
            status = SolveStatus.OPTIMAL if gap_ok else SolveStatus.TOLERANCE_REACHED
            stop_reason = "gap" if gap_ok else "dual_bound"
            break
        prev = sol

    kkt = None
    if status != SolveStatus.T_ZERO and incumbent_sol is not None:
        kkt = _certificate(inst, incumbent_x, incumbent_sol)
    return ConicSolveResult(
        x=incumbent_x.copy(), t=math.sqrt(max(inst.q.quad(incumbent_x), 0.0)),
        objective=eval_objective(inst, incumbent_x), kkt=kkt,
        qp_count=qp_count, pivot_count=sum(qp_pivots), trace=trace,
        status=status, stop_reason=stop_reason, qp_pivots=qp_pivots,
        phase1_count=phase1_count, first_qp_used_phase1=first_qp_phase1,
        interval_trace=interval_trace,
        basis=_statuses(incumbent_sol),
    )
