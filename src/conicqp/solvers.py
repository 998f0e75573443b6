"""Outer loops that minimize the perspective objective by driving the scale t.

Two drivers run the same chain of engine QPs on the subproblem at fixed t,
each QP warm-started from the last; they differ in how they pick the next t:

* ``solve_cd`` alternates an exact QP solve in x at fixed t with the closed
  form update t = sqrt(x'Qx), warm-starting every QP from the previous basis
  (primal start), or from a supplied basis via a dual start when resuming
  after bound changes.  Once per working set it tries to jump instead to
  that set's fixed point t* = sqrt(x(t*)'Q x(t*)), where x(t) is affine in
  t; the jump is taken only when x(t*) keeps the working set optimal (free
  variables within bounds, fixed ones' reduced costs of the right sign),
  t* lies on or beyond sqrt(x'Qx) in the direction t is moving, t*^2 is
  above ``QZERO_TOL`` and t* moves t by more than ``delta`` relative.  The
  QP at t* still runs: it takes no pivot and stops the loop through the
  usual dual-feasibility test.
* ``solve_bisection`` maintains a bracket [t_min, t_max] around the
  minimizer of the value function g(t), halving it at each midpoint QP and
  shrinking it further with the monotone update t1 = sqrt(x0'Qx0).

Both report a KKT certificate for the conic problem, with the dual
feasibility estimate qp_eps + (|dt|/t) * ||grad f||_inf as the convergence
measure.  A run that would stop as solved but has no certificate at its
point (it is off ``Ax = b`` by more than 1e-7, say) reports Uncertified.
Both use one T-zero test: x'Qx at or below ``QZERO_TOL``, where grad f is
undefined; such a run returns its point with status TZero and no
certificate.  Bisection always starts from the LP relaxation, whose point
gives the bracket [0, sqrt(x_LP' Q x_LP)] and the first QP's basis;
coordinate descent starts there too unless given a starting t or a warm
basis.  HiGHS solves that LP once (``solve_lp``); ``qp_count``,
``qp_pivots``, ``pivot_count`` and ``first_qp_used_phase1`` describe the
engine's QPs only, on a result and on the ``InfeasibleError`` of an
infeasible QP alike, and so do ``jumps_tried`` and ``jumps_taken`` for the
jumps of coordinate descent.  An LP that HiGHS leaves without an optimal vertex
raises ``LpFailureError``, and a QP whose KKT system stays singular raises
``SingularKktError``.
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
    QZERO_TOL,
    SolveStatus,
    ZeroQuadraticError,
    dual_bound_estimate,
    eval_objective,
    kkt_residual,
    subproblem_objective,
)
from .qp import (
    AT_LOWER,
    BASIC,
    FEAS_TOL,
    OPT_TOL,
    QpSolution,
    QpStatus,
    StartMode,
    WorkingBasis,
    scale_ray,
    solve_lp,
    solve_qp,
)

CD_MAX_OUTER = 1000       # coordinate-descent QPs before IterLimit
BISECT_MAX_OUTER = 200    # bisection midpoint QPs before IterLimit
BISECT_GAP_TOL = 1e-6     # relative gap between incumbent and lower bound


@dataclass
class CdOptions:
    """Coordinate-descent options; ``t0=None`` means "solve the LP first".

    ``qp_eps`` is the constant the dual-bound estimate adds; no option
    changes the engine's pricing threshold (``OPT_TOL/2`` = 5e-10)."""

    t0: float | None = None
    delta: float = 1e-5
    qp_eps: float = 1e-9

    def __post_init__(self):
        # t0 = inf would ask the QP engine for an LP, which only solve_lp runs
        if self.t0 is not None and not 0 < self.t0 < math.inf:
            raise ValueError("t0 must be positive and finite "
                             "(or None for the LP start)")
        if not self.delta > self.qp_eps:
            raise ValueError("delta must exceed qp_eps, the estimate's floor")


@dataclass
class BisectOptions:
    """Bisection options; the bracket always starts from the LP relaxation.

    ``qp_eps`` is as for ``CdOptions``, not an engine tolerance."""

    delta: float = 1e-5
    qp_eps: float = 1e-9

    def __post_init__(self):
        # the stopping estimate is at least qp_eps, so it must stay below delta
        if not self.delta > self.qp_eps:
            raise ValueError("delta must exceed qp_eps, the estimate's floor")


def _lp_relaxation(inst: ConicInstance) -> QpSolution:
    """Optimal LP vertex (t -> inf), solved by HiGHS and not counted as a QP."""
    return solve_lp(subproblem_objective(inst, math.inf))


def _statuses(sol: QpSolution) -> WorkingBasis:
    """The final basis without its KKT factor: a held result keeps statuses
    only, and a later warm start from it builds its own factor."""
    return WorkingBasis(sol.basis.status)


def _scale(inst: ConicInstance, x: np.ndarray) -> tuple[float, bool]:
    """t = sqrt(x'Qx), and whether x'Qx passes the T-zero test."""
    xqx = inst.q.quad(x)
    return math.sqrt(max(xqx, 0.0)), xqx <= QZERO_TOL


def _certified(inst: ConicInstance, x: np.ndarray, sol: QpSolution,
               status: SolveStatus) -> tuple[KktCertificate | None, SolveStatus]:
    """The KKT certificate of a finished run and its final status: a solved
    status without a certificate at x becomes Uncertified."""
    if status == SolveStatus.T_ZERO:
        return None, status
    cert = KktCertificate(lam=sol.lam, mu_lower=sol.mu_lower, mu_upper=sol.mu_upper)
    try:
        kkt_residual(inst, x, cert)
    except (ZeroQuadraticError, ValueError):
        if status in (SolveStatus.OPTIMAL, SolveStatus.TOLERANCE_REACHED):
            status = SolveStatus.UNCERTIFIED
        return None, status
    return cert, status


def _fixed_point(inst: ConicInstance, sol: QpSolution, t_i: float,
                 t_next: float, delta: float) -> float | None:
    """The fixed point t* = sqrt(x(t*)'Q x(t*)) of ``sol``'s working set, when
    it is a safe next t for coordinate descent after the QP at ``t_i``.

    With the working set fixed, x(t) = a + t b and t lam(t) are affine in t
    (``scale_ray``), so t* solves (1 - b'Qb) t^2 - 2 a'Qb t - a'Qa = 0.  Its
    middle term vanishes: b is zero off the free set F, A_F b_F = 0, and
    (Qa)_F = A_F' mu for the multipliers mu of the t = 0 end of the path.
    So the one positive root is t* = sqrt(a'Qa / (1 - b'Qb)); there is none
    when b'Qb >= 1.  The root is accepted only when

    * it lies on or beyond ``t_next`` going from ``t_i``, so t stays
      monotone (exact arithmetic guarantees this);
    * at x(t*) the free variables lie within their bounds and the fixed,
      non-pinned variables' reduced costs keep their signs, to the engine's
      tolerances, so x(t*) solves the QP at t* with zero pivots;
    * t*^2 is above ``QZERO_TOL``, out of the T-zero regime;
    * it moves t by more than ``delta * t_next``.
    """
    ray = scale_ray(subproblem_objective(inst, t_i), sol)
    if ray is None:
        return None
    dxds, dmuds = ray
    b = dxds / inst.omega  # s = t / omega
    a = sol.x - t_i * b
    lead = 1.0 - inst.q.quad(b)
    if not lead > 0:
        return None
    t_star = math.sqrt(inst.q.quad(a) / lead)
    if ((t_star - t_next) * (t_next - t_i) < 0 or t_star * t_star <= QZERO_TOL
            or abs(t_star - t_next) <= delta * t_next):
        return None
    x = a + t_star * b
    poly, status = inst.poly, sol.basis.status
    free = status == BASIC
    tol = FEAS_TOL * (1.0 + float(np.max(np.abs(x))))
    if (np.any(x[free] < poly.lower[free] - tol)
            or np.any(x[free] > poly.upper[free] + tol)):
        return None
    lam = (t_i * sol.lam + (t_star - t_i) * dmuds) / t_star
    rc = inst.c + inst.omega / t_star * inst.q.matvec(x) - poly.A.T @ lam
    viol = np.where(status == AT_LOWER, -rc, rc)[~free & (poly.lower < poly.upper)]
    if np.any(viol > 0.5 * OPT_TOL):  # the engine's pricing threshold
        return None
    return t_star


class _QpChain:
    """The engine QPs of one outer loop on t, each warm-started from the last.

    The first QP starts from the given basis, point and mode (all None and
    PrimalStart for a cold start); every later one primal-starts from its
    predecessor's basis and point.  The chain counts the QPs and their
    pivots and the fixed-point jumps tried and taken (``next_t``), raises
    ``InfeasibleError`` carrying those counts, and builds the run's result.
    """

    def __init__(self, inst: ConicInstance, basis: WorkingBasis | None = None,
                 x: np.ndarray | None = None,
                 mode: StartMode = StartMode.PRIMAL_START):
        self.inst = inst
        self._next = (basis, x, mode)
        self.qp_pivots: list[int] = []
        self.first_qp_used_phase1 = False
        self.jumps_tried = self.jumps_taken = 0
        self._rayed: set[bytes] = set()  # working sets a jump was tried from

    def solve(self, t: float) -> QpSolution:
        basis, x, mode = self._next
        sol = solve_qp(subproblem_objective(self.inst, t), warm=basis,
                       mode=mode, warm_x=x)
        if not self.qp_pivots:
            self.first_qp_used_phase1 = sol.used_phase1
        self.qp_pivots.append(sol.iterations)
        if sol.status == QpStatus.INFEASIBLE:
            err = InfeasibleError("QP subproblem is infeasible")
            err.qp_count = len(self.qp_pivots)
            err.pivot_count = sum(self.qp_pivots)
            err.first_qp_used_phase1 = self.first_qp_used_phase1
            err.jumps_tried, err.jumps_taken = self.jumps_tried, self.jumps_taken
            raise err
        self._next = (sol.basis, sol.x, StartMode.PRIMAL_START)
        return sol

    def next_t(self, sol: QpSolution, t_i: float, t_next: float,
               delta: float) -> float:
        """The next coordinate-descent t after the QP at ``t_i``: the working
        set's fixed point when ``_fixed_point`` accepts it, else ``t_next``.
        A jump is tried at most once per working set."""
        key = sol.basis.status.tobytes()
        if key in self._rayed:
            return t_next
        self._rayed.add(key)
        self.jumps_tried += 1
        t_star = _fixed_point(self.inst, sol, t_i, t_next, delta)
        if t_star is None:
            return t_next
        self.jumps_taken += 1
        return t_star

    def result(self, x: np.ndarray, sol: QpSolution, status: SolveStatus,
               stop_reason: str, trace: list[tuple[float, float]],
               t: float | None = None, **extra) -> ConicSolveResult:
        """The run's result at x, certified from ``sol``'s multipliers; t is
        sqrt(x'Qx) unless given."""
        kkt, status = _certified(self.inst, x, sol, status)
        return ConicSolveResult(
            x=x.copy(), t=_scale(self.inst, x)[0] if t is None else t,
            objective=eval_objective(self.inst, x), kkt=kkt,
            qp_count=len(self.qp_pivots), pivot_count=sum(self.qp_pivots),
            trace=trace, status=status, stop_reason=stop_reason,
            qp_pivots=self.qp_pivots,
            first_qp_used_phase1=self.first_qp_used_phase1,
            jumps_tried=self.jumps_tried, jumps_taken=self.jumps_taken,
            basis=_statuses(sol), **extra,
        )


def solve_cd(inst: ConicInstance, opt: CdOptions | None = None,
             warm: tuple[WorkingBasis, float] | None = None) -> ConicSolveResult:
    """Coordinate descent on the perspective reformulation.

    After each QP at t_i the next t is t_next = sqrt(x'Qx), or the fixed
    point t* of the QP's working set when ``_fixed_point`` accepts it; a
    jump is tried at most once per working set (jumping again from a set
    whose QP missed t* can cycle until the loop's cap at extreme omega).
    An accepted t* lies on
    or beyond t_next going from t_i, so the t sequence stays monotone.
    Stops when the dual-feasibility estimate drops below ``opt.delta``, or
    when x'Qx collapses to (numerical) zero, in which case the current point
    is returned with status TZero.  ``jumps_tried`` and ``jumps_taken`` on
    the result count the working sets a jump was tried from and the jumps
    made.
    """
    opt = opt or CdOptions()
    trace: list[tuple[float, float]] = []

    if warm is not None:
        basis, t_i = warm
        if not 0 < t_i < math.inf:
            raise ValueError("warm t must be positive and finite")
        chain = _QpChain(inst, basis, mode=StartMode.DUAL_START)
    elif opt.t0 is None:
        sol = _lp_relaxation(inst)
        chain = _QpChain(inst, sol.basis, sol.x)
        t_i, zero = _scale(inst, sol.x)
        if zero:
            return chain.result(sol.x, sol, SolveStatus.T_ZERO, "t_zero", trace)
    else:
        t_i = float(opt.t0)
        chain = _QpChain(inst)

    for _ in range(CD_MAX_OUTER):
        sol = chain.solve(t_i)
        x = sol.x
        trace.append((t_i, sol.objective))
        if sol.status == QpStatus.ITER_LIMIT:
            return chain.result(x, sol, SolveStatus.ITER_LIMIT, "qp_iter_limit",
                                trace, t=t_i)
        t_next, zero = _scale(inst, x)
        if zero:
            return chain.result(x, sol, SolveStatus.T_ZERO, "t_zero", trace)
        est = dual_bound_estimate(inst, x, t_i, t_next, opt.qp_eps)
        if est <= opt.delta:
            return chain.result(x, sol, SolveStatus.OPTIMAL, "dual_bound", trace)
        t_i = chain.next_t(sol, t_i, t_next, opt.delta)
    return chain.result(sol.x, sol, SolveStatus.ITER_LIMIT, "iter_limit", trace)


def solve_bisection(inst: ConicInstance,
                    opt: BisectOptions | None = None) -> ConicSolveResult:
    """Accelerated bisection on the value function g(t).

    The bracket starts as [0, t_max] with t_max = sqrt(x_LP' Q x_LP): the LP
    point minimizes the linear part alone (the t -> inf limit of the
    subproblem), so by the monotone t-update it bounds the optimal t from
    above, and its basis starts the first QP.  Each iteration solves the
    midpoint QP, then uses the monotone update t1 = sqrt(x0'Qx0) to move
    whichever end of the bracket t1 falls beyond, so the interval at least
    halves.  The incumbent is the best conic objective seen, the LP point
    first; a lower bound combines the linear part at the largest evaluated t
    with the risk part at the smallest, and the run stops once the relative
    gap closes and the incumbent's dual-feasibility estimate is within
    ``opt.delta`` (so every converged solve carries a certificate).
    """
    opt = opt or BisectOptions()
    trace: list[tuple[float, float]] = []
    interval_trace: list[tuple[float, float]] = []

    lp = _lp_relaxation(inst)
    chain = _QpChain(inst, lp.basis, lp.x)
    t_max, zero = _scale(inst, lp.x)
    if zero:  # t_max bounds the optimal sqrt(x'Qx)
        return chain.result(lp.x, lp, SolveStatus.T_ZERO, "t_zero", trace)

    t_min = 0.0
    x_low_side: np.ndarray | None = None  # x(t_m) with t_m <= t*
    x_high_side = lp.x  # the LP optimum plays x(t) for arbitrarily large t
    incumbent_x, incumbent_sol = lp.x, lp
    incumbent_obj = eval_objective(inst, lp.x)
    incumbent_est = math.inf

    interval_trace.append((t_min, t_max))
    status = SolveStatus.ITER_LIMIT
    stop_reason = "iter_limit"
    for _ in range(BISECT_MAX_OUTER):
        t0 = 0.5 * (t_min + t_max)
        sol = chain.solve(t0)
        if sol.status == QpStatus.ITER_LIMIT:
            stop_reason = "qp_iter_limit"
            break
        x0 = sol.x
        t1, zero = _scale(inst, x0)
        if zero:
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
        est = dual_bound_estimate(inst, x0, t0, t1, opt.qp_eps)
        z0 = eval_objective(inst, x0)
        # a certified midpoint tying the incumbent within the gap tolerance
        # also replaces it when the incumbent (typically the initial LP
        # point) cannot be certified, so the run can stop with a certificate
        if z0 <= incumbent_obj or (
                incumbent_est > opt.delta and est <= opt.delta
                and z0 <= incumbent_obj
                + BISECT_GAP_TOL * max(abs(incumbent_obj), 1.0)):
            incumbent_x, incumbent_obj, incumbent_sol = x0, z0, sol
            incumbent_est = est
        trace.append((t0, incumbent_obj))
        z_lower = -math.inf
        if x_low_side is not None:
            z_lower = (float(inst.c @ x_high_side)
                       + inst.omega * _scale(inst, x_low_side)[0])
        gap_ok = (incumbent_obj - z_lower) <= BISECT_GAP_TOL * max(abs(z_lower), 1.0)
        if incumbent_est <= opt.delta and (gap_ok or est <= opt.delta):
            status = SolveStatus.OPTIMAL if gap_ok else SolveStatus.TOLERANCE_REACHED
            stop_reason = "gap" if gap_ok else "dual_bound"
            break

    return chain.result(incumbent_x, incumbent_sol, status, stop_reason, trace,
                        interval_trace=interval_trace)
