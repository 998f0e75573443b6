"""Warm-startable active-set solver for convex QPs over {Ax = b, l <= x <= u}.

The engine minimizes ``linear'x + (sigma/2) x'Qx + offset`` subject to a
system of equalities and finite variable bounds.  The working set is the
partition of variables into Basic (free) and AtLower/AtUpper (fixed at a
bound); all equalities are permanently active.  Three entry modes exist:

* cold start: Phase-1 LP for feasibility, then primal active-set pivots;
* PrimalStart: a warm basis (and optionally a point) that is primal
  feasible, or repairable by bound projection plus Phase-1;
* DualStart: a warm basis whose reduced costs are (near) dual feasible,
  typically an optimal basis of the same problem with changed bounds; the
  engine restores primal feasibility by fixing violated variables.

Linear algebra: a dense LU factorization of the reduced KKT system for the
working set at the last refactorization, bordered through a Schur
complement for subsequent single working-set changes; the system is
refactorized from scratch every 100 updates or when a growth monitor
exceeds 1e8.  LPs (sigma = 0), Phase-1 included, are one-off cold solves
in the HiGHS dual simplex (``solve_lp``), whose vertex and multipliers come
back in the engine's conventions, ready to warm-start a QP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

from .model import InfeasibleError, LpFailureError, Polyhedron, QuadraticForm

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
COMP_TOL = 1e-9
RATIO_TOL = 1e-11
DEGEN_STEP = 1e-12
BLAND_TRIGGER = 50
MAX_BORDER = 100
MAX_UPDATES = 100
GROWTH_LIMIT = 1e8

# Working-set tags stored in int8 status arrays.
BASIC, AT_LOWER, AT_UPPER = 0, 1, 2


class QpStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    ITER_LIMIT = "IterLimit"


class StartMode(Enum):
    PRIMAL_START = "PrimalStart"
    DUAL_START = "DualStart"


class _SingularKkt(RuntimeError):
    """Internal: the bordered KKT system lost invertibility."""


def _inf(v: np.ndarray) -> float:
    return float(np.max(np.abs(v), initial=0.0))


@dataclass
class QpProblem:
    """min linear'x + (sigma/2) x'Qx + offset over a bounded polyhedron."""

    linear: np.ndarray
    quad: QuadraticForm | None
    sigma: float
    offset: float
    poly: Polyhedron

    def __post_init__(self):
        self.linear = np.asarray(self.linear, dtype=float).ravel()
        self.sigma = float(self.sigma)
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.sigma > 0 and self.quad is None:
            raise ValueError("sigma > 0 requires a quadratic form")
        if self.linear.shape != (self.poly.n,):
            raise ValueError("linear term has wrong length")

    def objective(self, x: np.ndarray) -> float:
        val = float(self.linear @ x) + self.offset
        if self.sigma > 0:
            val += 0.5 * self.sigma * self.quad.quad(x)
        return val


@dataclass
class WorkingBasis:
    """Variable partition carried between QPs and between search-tree nodes.

    ``status`` tags each variable BASIC, AT_LOWER or AT_UPPER.  It is all a
    warm start hands over besides the point: the receiving solve builds its
    own KKT factorization for the free set, since the Hessian scale
    ``sigma = omega/t`` differs from one QP to the next.
    """

    status: np.ndarray


@dataclass
class QpSolution:
    x: np.ndarray
    lam: np.ndarray
    mu_lower: np.ndarray
    mu_upper: np.ndarray
    objective: float
    basis: WorkingBasis
    iterations: int
    status: QpStatus
    used_phase1: bool = False
    pivot_log: list = field(default_factory=list)
    objective_trace: list = field(default_factory=list)


class _KktFactor:
    """LU of the base reduced KKT matrix plus a bordered Schur complement.

    The base system covers the free set at (re)factorization time together
    with the active equality rows.  Later working-set changes append border
    entries: ('fix', j) adds a unit constraint pinning a base variable,
    ('free', j) adds the KKT column of a newly freed variable.  Solves go
    through the Schur complement of the border block.
    """

    def __init__(self, hcol, A, rows, base_free):
        self.hcol = hcol  # hcol(j, idx) -> H[idx, j] for the current Hessian
        self.A = A
        self.rows = np.asarray(rows, dtype=int)
        self.base_free = np.asarray(base_free, dtype=int)
        self.pos = {int(j): i for i, j in enumerate(self.base_free)}
        nb, mr = len(self.base_free), len(self.rows)
        self.nb, self.mr, self.N0 = nb, mr, nb + mr
        K0 = np.zeros((self.N0, self.N0))
        if nb:
            K0[:nb, :nb] = self._hbase()
        if mr and nb:
            Afb = self.A[np.ix_(self.rows, self.base_free)]
            K0[:nb, nb:] = Afb.T
            K0[nb:, :nb] = Afb
        self.K0 = K0
        if self.N0:
            self.lu = scipy.linalg.lu_factor(K0, check_finite=False)
            du = np.abs(np.diag(self.lu[0]))
            if du.size and (du.min() == 0.0 or du.min() < 1e-14 * du.max()):
                raise _SingularKkt("base KKT matrix is singular")
        else:
            self.lu = None
        self.border: list[tuple[str, int]] = []
        self.B = np.zeros((self.N0, 0))
        self.Y = np.zeros((self.N0, 0))
        self.C = np.zeros((0, 0))
        self._s_lu = None
        self.updates = 0
        self.needs_refactor = False

    def _hbase(self) -> np.ndarray:
        cols = [self.hcol(int(j), self.base_free) for j in self.base_free]
        return np.column_stack(cols) if cols else np.zeros((0, 0))

    def _k0_solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.N0 == 0:
            return np.zeros(0)
        return scipy.linalg.lu_solve(self.lu, rhs, check_finite=False)

    def _mark_update(self):
        self._s_lu = None
        self.updates += 1
        if self.updates >= MAX_UPDATES or len(self.border) >= MAX_BORDER:
            self.needs_refactor = True

    def _append(self, entry, col, cross, diag):
        y = self._k0_solve(col)
        if y.size and np.max(np.abs(y)) > GROWTH_LIMIT:
            self.needs_refactor = True
        k = len(self.border)
        self.B = np.column_stack([self.B, col]) if k else col.reshape(-1, 1)
        self.Y = np.column_stack([self.Y, y]) if k else y.reshape(-1, 1)
        C = np.zeros((k + 1, k + 1))
        C[:k, :k] = self.C
        C[:k, k] = cross
        C[k, :k] = cross
        C[k, k] = diag
        self.C = C
        self.border.append(entry)
        self._mark_update()

    def _remove(self, idx: int):
        keep = [i for i in range(len(self.border)) if i != idx]
        del self.border[idx]
        self.B = self.B[:, keep]
        self.Y = self.Y[:, keep]
        self.C = self.C[np.ix_(keep, keep)]
        self._mark_update()

    def fix(self, j: int):
        """Pin variable j (currently free) at its bound."""
        j = int(j)
        for i, ent in enumerate(self.border):
            if ent == ("free", j):
                self._remove(i)
                return
        col = np.zeros(self.N0)
        col[self.pos[j]] = 1.0
        cross = np.zeros(len(self.border))  # unit rows never touch border vars
        self._append(("fix", j), col, cross, 0.0)

    def free(self, j: int):
        """Release variable j (currently fixed) into the free set."""
        j = int(j)
        for i, ent in enumerate(self.border):
            if ent == ("fix", j):
                self._remove(i)
                return
        col = np.zeros(self.N0)
        if self.nb:
            col[: self.nb] = self.hcol(j, self.base_free)
        if self.mr:
            col[self.nb:] = self.A[self.rows, j]
        cross = np.array(
            [self.hcol(j, np.array([k]))[0] if kind == "free" else 0.0
             for kind, k in self.border]
        )
        self._append(("free", j), col, cross, float(self.hcol(j, np.array([j]))[0]))

    def solve(self, rhs0, rhsb, validate=False):
        """Solve the bordered system [[K0, B], [B', C]] [z; w] = [rhs0; rhsb]."""
        z = self._k0_solve(rhs0)
        k = len(self.border)
        if k == 0:
            w = np.zeros(0)
        else:
            if self._s_lu is None:
                S = self.C - self.B.T @ self.Y
                try:
                    self._s_lu = scipy.linalg.lu_factor(S, check_finite=False)
                except (scipy.linalg.LinAlgError, ValueError) as exc:
                    raise _SingularKkt("border Schur complement failed") from exc
                du = np.abs(np.diag(self._s_lu[0]))
                if du.size and (du.min() == 0.0 or du.min() < 1e-13 * du.max()):
                    self._s_lu = None
                    raise _SingularKkt("border Schur complement is singular")
            w = scipy.linalg.lu_solve(self._s_lu, rhsb - self.Y.T @ rhs0,
                                      check_finite=False)
            z = z - self.Y @ w
        if validate:
            scale = 1.0 + max(_inf(rhs0), _inf(rhsb))
            r0 = self.K0 @ z - rhs0
            if k:
                r0 += self.B @ w
                rb = self.B.T @ z + self.C @ w - rhsb
                if _inf(rb) > 1e-7 * scale:
                    raise _SingularKkt("bordered solve residual too large")
            if _inf(r0) > 1e-7 * scale:
                raise _SingularKkt("bordered solve residual too large")
        return z, w


class ActiveSetEngine:
    """One QP solve worth of mutable state; create one engine per solve.

    A single engine object must not be used from multiple threads; problems,
    bases, and solutions are plain data and may be shared freely.
    """

    def __init__(self, problem: QpProblem, pivot_cap: int | None = None,
                 track_objective: bool = False):
        self.p = problem
        self.poly = problem.poly
        self.A = self.poly.A
        self.n, self.m = self.poly.n, self.poly.m
        self.lower, self.upper = self.poly.lower, self.poly.upper
        self.g = problem.linear
        self.sigma = problem.sigma
        self.pivot_cap = pivot_cap if pivot_cap is not None else 50 * (self.n + self.m)
        self.track_objective = track_objective
        self.pinned = self.lower == self.upper
        if not self.sigma > 0:
            raise ValueError("the active-set engine needs sigma > 0; use solve_lp")
        q = problem.quad
        self._W = q._W
        self._D = q.D
        self._Q_dense = q.dense_cache  # may be None; used when available
        # mutable per-solve state
        self.x = np.zeros(self.n)
        self.status = np.full(self.n, AT_LOWER, dtype=np.int8)
        self.factor: _KktFactor | None = None
        self.pivots = 0
        self.pivot_log: list = []
        self.obj_trace: list = []
        self.used_phase1 = False
        self._degen_streak = 0
        self._bland = False
        self._noise_mask = np.zeros(self.n, dtype=bool)
        self._rows_cache: np.ndarray | None = None
        self._force_qr = False
        self._last_lam = np.zeros(self.m)

    # ------------------------------------------------------------------
    # Hessian access for the KKT factorization
    # ------------------------------------------------------------------

    def _hcol(self, j: int, idx: np.ndarray) -> np.ndarray:
        if self._Q_dense is not None:
            return self.sigma * self._Q_dense[idx, j]
        col = self._W[idx] @ self._W[j]
        col[idx == j] += self._D[j]
        return self.sigma * col

    def _hmatvec(self, v: np.ndarray) -> np.ndarray:
        """sigma * Q @ v."""
        if self._Q_dense is not None:
            return self.sigma * (self._Q_dense @ v)
        return self.sigma * (self._W @ (self._W.T @ v) + self._D * v)

    def _gradient(self) -> np.ndarray:
        return self.g + self._hmatvec(self.x)

    # ------------------------------------------------------------------
    # Working-set bookkeeping and factorization management
    # ------------------------------------------------------------------

    def _free_idx(self) -> np.ndarray:
        return np.flatnonzero(self.status == BASIC)

    def _kept_rows(self) -> np.ndarray:
        """Equality rows kept in the working KKT system.

        Rows that are linear combinations of the others on the non-pinned
        columns are implied once the pinned (lower == upper) variables are
        substituted; they are verified for consistency and dropped with zero
        multipliers.  Without pinned variables the full row set is trusted
        unless a singular factorization forced the rank-revealing path.
        """
        if self._rows_cache is not None:
            return self._rows_cache
        if self.m == 0:
            self._rows_cache = np.zeros(0, dtype=int)
            return self._rows_cache
        if not self.pinned.any() and not self._force_qr:
            self._rows_cache = np.arange(self.m)
            return self._rows_cache
        live = np.flatnonzero(~self.pinned)
        M = self.A[:, live]
        scale = 1.0 + _inf(self.poly.b) + _inf(self.A)
        if live.size == 0:
            rank, piv = 0, np.arange(self.m)
        else:
            _, r, piv = scipy.linalg.qr(M.T, mode="economic", pivoting=True)
            diag = np.abs(np.diag(r))
            tol = 1e-11 * max(1.0, diag.max(initial=0.0))
            rank = int(np.sum(diag > tol))
        kept = np.sort(piv[:rank])
        dropped = np.sort(piv[rank:])
        if dropped.size:
            # each dropped row minus its combination of kept rows has support
            # only on pinned columns, so consistency is decided by x now
            if rank:
                alpha, *_ = np.linalg.lstsq(M[kept].T, M[dropped].T, rcond=None)
                lhs = (self.A[dropped] - alpha.T @ self.A[kept]) @ self.x
                rhs = self.poly.b[dropped] - alpha.T @ self.poly.b[kept]
            else:
                lhs = self.A[dropped] @ self.x
                rhs = self.poly.b[dropped]
            if _inf(lhs - rhs) > 1e-7 * scale:
                raise InfeasibleError(
                    "equality rows implied by fixed variables are violated"
                )
        self._rows_cache = kept
        return kept

    def _ensure_row_rank(self, rows: np.ndarray):
        """Free additional variables until A[rows, free] has full row rank."""
        if rows.size == 0:
            return
        free = self._free_idx()
        if free.size:
            q, r, _ = scipy.linalg.qr(self.A[np.ix_(rows, free)],
                                      mode="economic", pivoting=True)
            diag = np.abs(np.diag(r))
            tol = 1e-11 * max(1.0, diag.max(initial=0.0))
            rank = int(np.sum(diag > tol))
            U = q[:, :rank]
        else:
            rank = 0
            U = np.zeros((rows.size, 0))
        candidates = np.flatnonzero((self.status != BASIC) & ~self.pinned)
        while rank < rows.size:
            if candidates.size == 0:
                raise _SingularKkt(
                    "equality rows cannot be spanned by releasable variables"
                )
            R = self.A[np.ix_(rows, candidates)]
            resid = R - U @ (U.T @ R) if rank else R
            norms = np.linalg.norm(resid, axis=0)
            best = int(np.argmax(norms))
            if norms[best] <= 1e-10 * (1.0 + float(np.abs(R).max(initial=0.0))):
                raise _SingularKkt("equality rows are linearly dependent")
            j = int(candidates[best])
            self.status[j] = BASIC
            u_new = resid[:, best] / norms[best]
            U = np.column_stack([U, u_new]) if rank else u_new.reshape(-1, 1)
            rank += 1
            candidates = candidates[candidates != j]

    def _build_factor(self):
        rows = self._kept_rows()
        self._ensure_row_rank(rows)
        free = self._free_idx()
        if (self._Q_dense is None and free.size >= max(64, self.n // 4)
                and self.n <= 4000):
            # large free sets assemble Hessian blocks much faster densely
            self._Q_dense = self.p.quad.dense()
        self.factor = _KktFactor(self._hcol, self.A, rows, free)

    def _refactor(self):
        self.factor = None
        self._build_factor()

    def _fix_var(self, j: int, side: int):
        self.status[j] = side
        self.x[j] = self.lower[j] if side == AT_LOWER else self.upper[j]
        self.factor.fix(j)
        if self.factor.needs_refactor:
            self._refactor()

    def _free_var(self, j: int):
        self.status[j] = BASIC
        self.factor.free(j)
        if self.factor.needs_refactor:
            self._refactor()

    # ------------------------------------------------------------------
    # Direction solves
    # ------------------------------------------------------------------

    def _direction(self, d: np.ndarray, eq_resid: np.ndarray | None = None,
                   validate: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """EQP step p and equality multipliers lam at the current working set.

        Solves [[H_FF, A_F'], [A_F, 0]] [p; y] = [-d_F; eq_resid]; lam = -y.
        """
        fac = self.factor
        rhs0 = np.zeros(fac.N0)
        if fac.nb:
            rhs0[: fac.nb] = -d[fac.base_free]
        if fac.mr and eq_resid is not None:
            rhs0[fac.nb:] = eq_resid[fac.rows]
        rhsb = np.array(
            [-d[j] if kind == "free" else 0.0 for kind, j in fac.border]
        )
        z, w = fac.solve(rhs0, rhsb, validate=validate)
        p = np.zeros(self.n)
        if fac.nb:
            p[fac.base_free] = z[: fac.nb]
        for i, (kind, j) in enumerate(fac.border):
            p[j] = w[i] if kind == "free" else 0.0
        lam = np.zeros(self.m)
        if fac.mr:
            lam[fac.rows] = -z[fac.nb:]
        return p, lam

    def _direction_robust(self, d, eq_resid=None, validate=False):
        try:
            return self._direction(d, eq_resid, validate)
        except _SingularKkt:
            self._refactor()
            return self._direction(d, eq_resid, validate)

    # ------------------------------------------------------------------
    # Primal active-set loop
    # ------------------------------------------------------------------

    def _ratio_test(self, p: np.ndarray) -> tuple[float, int | None, int]:
        """Two-pass (Harris) ratio test.

        Pass one finds the smallest step with every bound relaxed by the
        feasibility tolerance; pass two blocks on the candidate with the
        largest |p_j| among those whose exact step fits under it.  Choosing
        large pivots keeps the working set numerically well conditioned; the
        bound overshoot this allows is at most the feasibility tolerance.
        """
        free = self._free_idx()
        pf = p[free]
        pn = _inf(pf)
        ztol = RATIO_TOL * max(1.0, pn)
        up = pf > ztol
        lo = pf < -ztol
        if not (up.any() or lo.any()):
            return math.inf, None, AT_LOWER
        idx = np.concatenate([free[up], free[lo]])
        rate = np.concatenate([pf[up], -pf[lo]])
        gap = np.concatenate([
            np.maximum(self.upper[free[up]] - self.x[free[up]], 0.0),
            np.maximum(self.x[free[lo]] - self.lower[free[lo]], 0.0),
        ])
        side = np.concatenate([
            np.full(int(up.sum()), AT_UPPER, dtype=np.int8),
            np.full(int(lo.sum()), AT_LOWER, dtype=np.int8),
        ])
        alphas = gap / rate
        if self._bland:
            alpha_best = float(alphas.min())
            near = alphas <= alpha_best + 1e-13 * (1.0 + alpha_best)
            k = int(np.flatnonzero(near)[np.argmin(idx[near])])
            return float(alphas[k]), int(idx[k]), int(side[k])
        ftol = FEAS_TOL * (1.0 + _inf(self.x))
        alpha_relaxed = float(np.min((gap + ftol) / rate))
        cand = np.flatnonzero(alphas <= alpha_relaxed)
        order = np.lexsort((idx[cand], -rate[cand]))
        k = int(cand[order[0]])
        return float(alphas[k]), int(idx[k]), int(side[k])

    def _primal_loop(self) -> QpStatus:
        d = self._gradient()
        refresh = 0
        at_opt = False
        lam = np.zeros(self.m)
        while True:
            if self.pivots >= self.pivot_cap:
                self._last_lam = lam
                return QpStatus.ITER_LIMIT
            if not at_opt:
                p, lam = self._direction_robust(d, validate=True)
                if _inf(p[self._free_idx()]) > 1e-11 * (1.0 + _inf(self.x)):
                    alpha_max, blocker, side = self._ratio_test(p)
                    alpha = min(1.0, alpha_max)
                    if alpha > 0:
                        self.x += alpha * p
                        d += alpha * self._hmatvec(p)
                        refresh += 1
                        if refresh >= 64:
                            d = self._gradient()
                            refresh = 0
                    if alpha_max < 1.0:
                        self._fix_var(blocker, side)
                        self._count_pivot(("block", int(blocker), int(side)), alpha)
                        continue
                    # full step: x is now the EQP optimum and lam from this
                    # solve certifies it
                    d = self._gradient()
                    refresh = 0
                at_opt = True
            rc = d - self.A.T @ lam if self.m else d.copy()
            j, side_viol = self._worst_violation(rc)
            if j is None:
                self._last_lam = lam
                return QpStatus.OPTIMAL
            self._free_var(j)
            self._count_pivot(("drop", int(j), int(side_viol)), 0.0)
            if self._pin_stall(j, d):
                continue
            at_opt = False

    def _worst_violation(self, rc: np.ndarray) -> tuple[int | None, int]:
        viol_tol = 0.5 * OPT_TOL
        scan = (self.status != BASIC) & ~self.pinned & ~self._noise_mask
        viol = np.where(self.status == AT_LOWER, -rc, rc)
        viol[~scan] = -math.inf
        if self._bland:
            hits = np.flatnonzero(viol > viol_tol)
            if hits.size == 0:
                return None, AT_LOWER
            j = int(hits[0])  # lowest index wins in Bland mode
        else:
            j = int(np.argmax(viol))
            if viol[j] <= viol_tol:
                return None, AT_LOWER
        return j, int(self.status[j])

    def _pin_stall(self, j: int, d: np.ndarray) -> bool:
        """Re-fix a freed variable whose admissible step is pure round-off.

        If releasing j admits essentially no movement its reduced-cost
        violation sits at the noise floor; exclude it from further scans so
        the solve terminates instead of cycling on the same variable.
        """
        p, _ = self._direction_robust(d)
        if _inf(p[self._free_idx()]) > 1e-13 * (1.0 + _inf(self.x)):
            return False
        side = AT_LOWER if abs(self.x[j] - self.lower[j]) <= abs(
            self.x[j] - self.upper[j]) else AT_UPPER
        self._fix_var(j, side)
        self._noise_mask[j] = True
        return True

    def _count_pivot(self, entry, alpha: float):
        self.pivots += 1
        self.pivot_log.append(entry)
        if self.track_objective:
            self.obj_trace.append(self.p.objective(self.x))
        if alpha <= DEGEN_STEP:
            self._degen_streak += 1
            if self._degen_streak >= BLAND_TRIGGER:
                self._bland = True
        else:
            self._degen_streak = 0
            self._bland = False

    # ------------------------------------------------------------------
    # Dual start: restore primal feasibility by fixing violated variables
    # ------------------------------------------------------------------

    def _dual_loop(self) -> str:
        last_fix: int | None = None
        for _ in range(self.pivot_cap + 1):
            d = self._gradient()
            resid = self.poly.b - self.A @ self.x if self.m else None
            try:
                p, _ = self._direction(d, resid, validate=True)
            except _SingularKkt:
                try:
                    self._refactor()
                    p, _ = self._direction(d, resid, validate=True)
                except _SingularKkt:
                    if last_fix is not None:
                        self.status[last_fix] = BASIC
                    return "fallback"
            xn = self.x + p
            free = self._free_idx()
            ftol = FEAS_TOL * (1.0 + _inf(xn))
            lo_v = self.lower[free] - xn[free]
            up_v = xn[free] - self.upper[free]
            worst, worst_side = None, AT_LOWER
            if free.size:
                k_lo, k_up = int(np.argmax(lo_v)), int(np.argmax(up_v))
                if lo_v[k_lo] >= up_v[k_up] and lo_v[k_lo] > ftol:
                    worst, worst_side = int(free[k_lo]), AT_LOWER
                elif up_v[k_up] > ftol:
                    worst, worst_side = int(free[k_up]), AT_UPPER
            self.x = xn
            if worst is None:
                np.clip(self.x, self.lower, self.upper, out=self.x)
                return "feasible"
            try:
                self._fix_var(worst, worst_side)
            except _SingularKkt:
                self.status[worst] = BASIC
                return "fallback"
            self._count_pivot(("dfix", worst, int(worst_side)), 1.0)
            last_fix = worst
        return "fallback"

    # ------------------------------------------------------------------
    # Phase 1: a feasible vertex from a zero-objective LP
    # ------------------------------------------------------------------

    def _phase1(self):
        """Project x onto its working set's bounds; if the equalities still
        fail, restart from the vertex of a zero-objective LP.  Then factor."""
        np.clip(self.x, self.lower, self.upper, out=self.x)
        at_lo = self.status == AT_LOWER
        at_up = self.status == AT_UPPER
        self.x[at_lo] = self.lower[at_lo]
        self.x[at_up] = self.upper[at_up]
        r0 = self.poly.b - self.A @ self.x
        if _inf(r0) > FEAS_TOL * (1.0 + _inf(self.poly.b)):
            self.used_phase1 = True
            lp = solve_lp(QpProblem(linear=np.zeros(self.n), quad=None,
                                    sigma=0.0, offset=0.0, poly=self.poly))
            self.x, self.status = lp.x, lp.basis.status
        self._build_factor()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def _normalize_basis(self, warm, warm_x):
        if warm is not None:
            st = np.asarray(warm.status, dtype=np.int8).copy()
            if st.shape != (self.n,):
                raise ValueError("warm basis has wrong length")
            self.status = st
        else:
            self.status = np.full(self.n, AT_LOWER, dtype=np.int8)
        self.status[self.pinned] = AT_LOWER
        if warm_x is not None:
            self.x = np.asarray(warm_x, dtype=float).copy()
            if self.x.shape != (self.n,):
                raise ValueError("warm point has wrong length")
        else:
            self.x = np.zeros(self.n)
            free = self.status == BASIC
            self.x[free] = np.clip(0.0, self.lower[free], self.upper[free])
        at_lo = self.status == AT_LOWER
        at_up = self.status == AT_UPPER
        self.x[at_lo] = self.lower[at_lo]
        self.x[at_up] = self.upper[at_up]
        np.clip(self.x, self.lower, self.upper, out=self.x)

    def _primal_feasibility(self, warm):
        """Make self.x primal feasible, repairing the warm basis if needed."""
        if warm is None:
            self._phase1()
            return
        bscale = 1.0 + _inf(self.poly.b)
        resid = self.poly.b - self.A @ self.x if self.m else np.zeros(0)
        if _inf(resid) <= FEAS_TOL * bscale:
            self._build_factor()
            return
        # statuses are valid but equalities drifted (e.g. bound values moved):
        # try one restoration step through the free variables before Phase-1
        try:
            self._build_factor()
            p, _ = self._direction(np.zeros(self.n), resid, validate=True)
            xn = self.x + p
            ftol = FEAS_TOL * (1.0 + _inf(xn))
            if (np.all(xn >= self.lower - ftol)
                    and np.all(xn <= self.upper + ftol)
                    and _inf(self.poly.b - self.A @ xn) <= FEAS_TOL * bscale):
                self.x = np.clip(xn, self.lower, self.upper)
                return
        except _SingularKkt:
            pass
        self._phase1()

    def solve(self, warm: WorkingBasis | None = None,
              mode: StartMode = StartMode.PRIMAL_START,
              warm_x: np.ndarray | None = None) -> QpSolution:
        self._normalize_basis(warm, warm_x)
        dual_ok = mode == StartMode.DUAL_START and warm is not None
        try:
            try:
                if dual_ok:
                    self._build_factor()
                    if self._dual_loop() == "fallback":
                        self._phase1()
                else:
                    self._primal_feasibility(warm)
                state = self._primal_loop()
            except _SingularKkt:
                # last resort: rank-revealing row analysis plus Phase-1
                self._force_qr = True
                self._rows_cache = None
                self.factor = None
                self._phase1()
                state = self._primal_loop()
        except InfeasibleError:
            return self._package(np.zeros(self.m), QpStatus.INFEASIBLE)
        return self._package(self._last_lam, state)

    def _package(self, lam: np.ndarray, state: QpStatus) -> QpSolution:
        if state == QpStatus.INFEASIBLE:
            return QpSolution(
                x=self.x.copy(), lam=np.zeros(self.m),
                mu_lower=np.zeros(self.n), mu_upper=np.zeros(self.n),
                objective=math.inf, basis=WorkingBasis(self.status.copy()),
                iterations=self.pivots, status=state,
                used_phase1=self.used_phase1, pivot_log=list(self.pivot_log),
                objective_trace=list(self.obj_trace),
            )
        d = self._gradient()
        rc = d - self.A.T @ lam if self.m else d.copy()
        mu_lower = np.zeros(self.n)
        mu_upper = np.zeros(self.n)
        at_lo = (self.status == AT_LOWER) & ~self.pinned
        at_up = (self.status == AT_UPPER) & ~self.pinned
        mu_lower[at_lo] = np.maximum(rc[at_lo], 0.0)
        mu_upper[at_up] = np.maximum(-rc[at_up], 0.0)
        mu_lower[self.pinned] = np.maximum(rc[self.pinned], 0.0)
        mu_upper[self.pinned] = np.maximum(-rc[self.pinned], 0.0)
        return QpSolution(
            x=self.x.copy(), lam=lam.copy(), mu_lower=mu_lower,
            mu_upper=mu_upper, objective=self.p.objective(self.x),
            basis=WorkingBasis(self.status.copy()),
            iterations=self.pivots, status=state,
            used_phase1=self.used_phase1, pivot_log=list(self.pivot_log),
            objective_trace=list(self.obj_trace),
        )


def solve_lp(problem: QpProblem) -> QpSolution:
    """Solve the LP min linear'x + offset over the polyhedron with HiGHS.

    Runs the dual simplex of ``scipy.optimize.linprog``; the quadratic term
    is ignored.  Multipliers follow the engine's convention ``linear - A'lam
    - mu_lower + mu_upper = 0``.  The basis fixes a variable at the bound it
    sits on unless its reduced cost is zero; those stay Basic with the
    interior ones, so a degenerate vertex (a grid path sits entirely at 0
    or 1) hands a warm QP a free set of full row rank.  Raises
    ``InfeasibleError`` for an infeasible LP and ``LpFailureError`` when
    HiGHS stops without an answer.
    """
    poly, c = problem.poly, problem.linear
    # presolve costs more than it saves here: 0.12 s of 0.14 s on the
    # one-row n=3200 cardinality LP, nothing on grid-path LPs
    res = linprog(c, A_eq=poly.A, b_eq=poly.b, method="highs-ds",
                  bounds=np.column_stack([poly.lower, poly.upper]),
                  options={"primal_feasibility_tolerance": FEAS_TOL,
                           "dual_feasibility_tolerance": OPT_TOL,
                           "presolve": False})
    if res.status == 2:
        raise InfeasibleError(f"LP is infeasible: {res.message}")
    if res.status != 0:
        raise LpFailureError(f"HiGHS status {res.status}: {res.message}")
    lam = res.eqlin.marginals
    # under a zero objective every reduced cost is zero and says nothing
    free = (np.abs(c - poly.A.T @ lam) <= 1e-9 * (1.0 + _inf(c))) & c.any()
    x = np.clip(res.x, poly.lower, poly.upper)
    tol = FEAS_TOL * (1.0 + _inf(x))
    status = np.full(poly.n, BASIC, dtype=np.int8)
    status[~free & (poly.upper - x <= tol)] = AT_UPPER
    status[~free & (x - poly.lower <= tol)] = AT_LOWER
    status[poly.lower == poly.upper] = AT_LOWER
    at_lo, at_up = status == AT_LOWER, status == AT_UPPER
    x[at_lo], x[at_up] = poly.lower[at_lo], poly.upper[at_up]
    return QpSolution(
        x=x, lam=lam, mu_lower=res.lower.marginals, mu_upper=-res.upper.marginals,
        objective=problem.objective(x), basis=WorkingBasis(status),
        iterations=int(res.nit), status=QpStatus.OPTIMAL)


def solve_qp(problem: QpProblem, warm: WorkingBasis | None = None,
             mode: StartMode = StartMode.PRIMAL_START,
             warm_x: np.ndarray | None = None,
             pivot_cap: int | None = None,
             track_objective: bool = False) -> QpSolution:
    """Solve a convex QP over {Ax = b, l <= x <= u} with the active-set engine.

    ``warm`` carries the variable statuses of a related solve.  PrimalStart
    restores primal feasibility first (bound projection, then Phase-1 if
    necessary); DualStart treats the basis as dual feasible and fixes
    bound-violating variables until primal feasible, which is the cheap
    restart after tightening bounds.  Cold starts take a Phase-1 vertex
    and then run the primal loop.  LPs (sigma = 0) go to ``solve_lp``,
    which solves cold, ignores the warm-start and pivot arguments, and
    raises where the engine returns a status.  A Phase-1 LP that HiGHS
    leaves unsolved raises ``LpFailureError``.
    """
    if problem.sigma == 0:
        return solve_lp(problem)
    eng = ActiveSetEngine(problem, pivot_cap=pivot_cap,
                          track_objective=track_objective)
    return eng.solve(warm, mode, warm_x)


def reoptimize_after_bound_change(prev: QpSolution, problem: QpProblem,
                                  pivot_cap: int | None = None) -> QpSolution:
    """Re-solve after bound tightening, dual-starting from the previous basis."""
    return solve_qp(problem, warm=prev.basis, mode=StartMode.DUAL_START,
                    warm_x=prev.x, pivot_cap=pivot_cap)
