"""Warm-startable active-set solver for convex QPs over {Ax = b, l <= x <= u}.

The engine minimizes ``linear'x + (sigma/2) x'Qx + offset`` subject to a
system of equalities and finite variable bounds.  The working set is the
partition of variables into Basic (free) and AtLower/AtUpper (fixed at a
bound); all equalities are permanently active.  Two entry modes exist:

* PrimalStart, warm or cold: Phase-1 projects the point (the origin for a
  cold start) onto the working set's bounds and, only if the equalities
  then fail, restarts from the vertex of a zero-objective LP; primal
  active-set pivots follow;
* DualStart: a warm basis whose reduced costs are (near) dual feasible,
  typically an optimal basis of the same problem with changed bounds; the
  engine restores primal feasibility by fixing violated variables, and
  falls back to Phase-1 when that runs out of pivots.

Linear algebra: a dense LU factorization of the sigma-free reduced KKT
system ``[[Q_FF, A_F'], [A_F, 0]]`` for the working set at the last
refactorization, bordered through a Schur complement for subsequent single
working-set changes; the Schur complement gains or loses one row and one
column per change instead of being formed again, and each direction solve
scales its right-hand side by ``1/sigma``.  The system is refactorized from
scratch every 100 updates or when a growth monitor exceeds 1e8.  Both LUs
and their solves call LAPACK's ``getrf`` and ``getrs`` directly, not
through SciPy's wrappers, whose fixed cost per call exceeds a small
bordered solve's arithmetic; each LU's pivot test (a pivot exactly zero or
below a relative tolerance) is the only report of singularity.  A
solution's basis carries its final factor, and the next QP on the same
polyhedron and quadratic form adopts a copy of it when its free set
matches, so a warm QP that takes no pivots costs one solve and no
factorization.  The same factor gives ``scale_ray``, the slopes of a
solution's x and sigma-scaled multipliers along 1/sigma with the working
set fixed, in one more bordered solve.  LPs (sigma = 0), Phase-1 included,
are one-off cold solves in the HiGHS dual simplex (``solve_lp``), whose
vertex and multipliers come back in the engine's conventions, ready to
warm-start a QP.

A KKT system found singular is recovered in one place, ``solve``: during
the feasible start the engine drops the factor and runs Phase-1 again;
inside the primal loop it builds a fresh factorization and resumes, provided
a pivot was made since the last such recovery.  A system that stays
singular raises ``SingularKktError``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

from .model import (
    InfeasibleError,
    LpFailureError,
    Polyhedron,
    QuadraticForm,
    SingularKktError,
)

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
RATIO_TOL = 1e-11
DEGEN_STEP = 1e-12
BLAND_TRIGGER = 50
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


# the routines behind scipy.linalg.lu_factor and lu_solve, without their wrappers
_getrf, _getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"))


def _inf(v: np.ndarray) -> float:
    return float(np.abs(v).max(initial=0.0))


def _lu(M: np.ndarray, rtol: float, what: str):
    """LU factors and pivots of M from LAPACK's getrf; raises
    SingularKktError on a pivot below rtol times the largest.  That test is
    the only report of singularity: it rejects the exactly zero pivot that
    getrf flags, so getrf's status is not read."""
    lu, piv, _ = _getrf(M)
    du = np.abs(lu.diagonal())
    if du.size and (du.min() == 0.0 or du.min() < rtol * du.max()):
        raise SingularKktError(f"{what} is singular")
    return lu, piv


def _lu_solve(lu, rhs: np.ndarray) -> np.ndarray:
    """Solve with the factors ``_lu`` returned (LAPACK's getrs)."""
    return _getrs(*lu, rhs)[0]


def _qr_rank(M: np.ndarray) -> tuple[int, np.ndarray]:
    """Numerical rank of M and the column order of its pivoted QR (R only):
    the count of |r_ii| above 1e-11 max(1, |r_11|).  An empty M has rank 0
    and the identity order."""
    r, piv = scipy.linalg.qr(M, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = 1e-11 * max(1.0, diag.max(initial=0.0))
    return int(np.sum(diag > tol)), piv


def _zero_padded(a: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """A zero array of ``shape`` with ``a`` in its leading block."""
    out = np.zeros(shape)
    out[: a.shape[0], : a.shape[1]] = a
    return out


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

    ``status`` tags each variable BASIC, AT_LOWER or AT_UPPER.  ``factor`` is
    the sigma-free KKT factorization the producing solve ended with, or
    None.  The receiving solve adopts a copy of it when it was built on the
    same ``Polyhedron`` and ``QuadraticForm`` objects with the same pinned
    mask, its free set equals the receiving free set, and it has no
    refactorization pending; otherwise it builds its own.  The factor is
    never serialized, and a basis may warm-start any number of solves.
    """

    status: np.ndarray
    factor: _KktFactor | None = field(default=None, repr=False, compare=False)


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
    factor_reused: bool = False
    pivot_log: list = field(default_factory=list)
    objective_trace: list = field(default_factory=list)


class _KktFactor:
    """LU of the sigma-free base KKT matrix plus a bordered Schur complement.

    The base matrix ``[[Q_FF, A_F'], [A_F, 0]]`` covers the free set F at
    (re)factorization time and the kept equality rows.  It holds no Hessian
    scale: ``[[sigma Q, A'], [A, 0]] [p; y] = [r0; r1]`` is the same system
    as ``[[Q, A'], [A, 0]] [p; y/sigma] = [r0/sigma; r1]``, so one factor
    serves every ``sigma``.  Later working-set changes append border
    entries: ('fix', j) adds a unit constraint pinning a base variable,
    ('free', j) adds the KKT column of a newly freed variable.  Solves go
    through the Schur complement ``S = C - B'Y`` of the border block, with
    ``Y = K0^-1 B``; ``S`` is kept up to date, one row and one column per
    border change, in the manner of the Schur-complement QP method of Gill,
    Murray, Saunders and Wright (1990), and LU-factored when a solve needs it.

    The border arrays hold one border entry per row of ``_bt`` (B'), ``_yt``
    (Y') and per row and column of ``_c`` (C) and ``_s`` (S), with spare
    rows that double when full; ``B``, ``Y``, ``C`` and ``S`` are views of
    the live part.

    A factor refers to the polyhedron, quadratic form and pinned mask it was
    built on, never to an engine, so a solution can hand it to the next QP.
    """

    def __init__(self, poly, quad, pinned, rows, base_free):
        self.poly, self.quad, self.pinned = poly, quad, pinned
        self.A = poly.A
        self.rows = np.asarray(rows, dtype=int)
        self.base_free = np.asarray(base_free, dtype=int)
        self.pos = {int(j): i for i, j in enumerate(self.base_free)}
        nb, mr = len(self.base_free), len(self.rows)
        self.nb, self.mr, self.N0 = nb, mr, nb + mr
        K0 = np.zeros((self.N0, self.N0))
        K0[:nb, :nb] = quad.block(self.base_free, self.base_free)
        Afb = self.A[np.ix_(self.rows, self.base_free)]
        K0[:nb, nb:] = Afb.T
        K0[nb:, :nb] = Afb
        self.K0 = K0
        self.lu = _lu(K0, 1e-14, "base KKT matrix") if self.N0 else None
        self.border: list[tuple[str, int]] = []
        self._bt = np.zeros((4, self.N0))
        self._yt = np.zeros((4, self.N0))
        self._c = np.zeros((4, 4))
        self._s = np.zeros((4, 4))
        self._s_lu = None
        self.updates = 0
        self.needs_refactor = False

    @property
    def B(self) -> np.ndarray:
        return self._bt[: len(self.border)].T

    @property
    def Y(self) -> np.ndarray:
        return self._yt[: len(self.border)].T

    @property
    def C(self) -> np.ndarray:
        k = len(self.border)
        return self._c[:k, :k]

    @property
    def S(self) -> np.ndarray:
        k = len(self.border)
        return self._s[:k, :k]

    def copy(self) -> "_KktFactor":
        """A copy with its own border arrays, trimmed to the live entries
        (at least the initial four rows), so a QP that adopts a factor and
        takes no pivot copies no spare rows; the base LU, never written
        after construction, is shared."""
        c = copy.copy(self)
        c.border = list(self.border)
        n = max(len(self.border), 4)
        c._bt, c._yt = self._bt[:n].copy(), self._yt[:n].copy()
        c._c, c._s = self._c[:n, :n].copy(), self._s[:n, :n].copy()
        return c

    def serves(self, poly, quad, pinned, free_mask) -> bool:
        """Whether this factor is the KKT system of ``free_mask`` on ``poly``
        and ``quad`` with the given pinned mask, without pending refactor."""
        if poly is not self.poly or quad is not self.quad or self.needs_refactor:
            return False
        if not np.array_equal(pinned, self.pinned):
            return False
        mine = np.zeros(poly.n, dtype=bool)
        mine[self.base_free] = True
        for kind, j in self.border:
            mine[j] = kind == "free"
        return bool(np.array_equal(mine, free_mask))

    def _k0_solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.N0 == 0:
            return np.zeros(0)
        return _lu_solve(self.lu, rhs)

    def _mark_update(self):
        self._s_lu = None
        self.updates += 1
        if self.updates >= MAX_UPDATES:
            self.needs_refactor = True

    def _append(self, entry, col, cross, diag):
        """Add border entry k with B column ``col``, C row ``cross`` and C
        diagonal ``diag``; S gains row and column k in O(N0 k).  The two are
        formed apart, as ``C - B'Y`` forms them, so S keeps the round-off
        asymmetry a from-scratch product would have."""
        y = self._k0_solve(col)
        if _inf(y) > GROWTH_LIMIT:
            self.needs_refactor = True
        k = len(self.border)
        if k == len(self._c):  # full: double the spare rows
            self._bt, self._yt = (_zero_padded(a, (2 * k, self.N0))
                                  for a in (self._bt, self._yt))
            self._c, self._s = (_zero_padded(a, (2 * k, 2 * k))
                                for a in (self._c, self._s))
        self._bt[k], self._yt[k] = col, y
        self._c[:k, k] = self._c[k, :k] = cross
        self._c[k, k] = diag
        self._s[:k, k] = cross - self._bt[:k] @ y
        self._s[k, :k] = cross - self._yt[:k] @ col
        self._s[k, k] = diag - col @ y
        self.border.append(entry)
        self._mark_update()

    def _remove(self, idx: int):
        """Delete border entry idx: its row of B', Y', and its row and
        column of C and S, shifting the later entries up in place."""
        k = len(self.border)
        del self.border[idx]
        for a in (self._bt, self._yt, self._c, self._s):
            a[idx:k - 1] = a[idx + 1:k]
        for a in (self._c, self._s):
            a[:k - 1, idx:k - 1] = a[:k - 1, idx + 1:k]
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
        fr = [i for i, (kind, _) in enumerate(self.border) if kind == "free"]
        idx = np.concatenate([self.base_free, np.array(
            [self.border[i][1] for i in fr] + [j], dtype=int)])
        h = self.quad.block(idx, np.array([j]))[:, 0]  # Q[idx, j]
        col = np.zeros(self.N0)
        col[: self.nb] = h[: self.nb]
        if self.mr:
            col[self.nb:] = self.A[self.rows, j]
        cross = np.zeros(len(self.border))  # a fix entry's unit row is 0 at j
        cross[fr] = h[self.nb:-1]
        self._append(("free", j), col, cross, float(h[-1]))

    def solve(self, rhs0, rhsb):
        """Solve the bordered system [[K0, B], [B', C]] [z; w] = [rhs0; rhsb],
        raising ``SingularKktError`` when the solution's residual is too large."""
        z = self._k0_solve(rhs0)
        k = len(self.border)
        if k == 0:
            w = np.zeros(0)
        else:
            if self._s_lu is None:
                self._s_lu = _lu(self.S, 1e-13, "border Schur complement")
            w = _lu_solve(self._s_lu, rhsb - self.Y.T @ rhs0)
            z = z - self.Y @ w
        scale = 1.0 + max(_inf(rhs0), _inf(rhsb))
        r0 = self.K0 @ z - rhs0
        if k:
            r0 += self.B @ w
            rb = self.B.T @ z + self.C @ w - rhsb
            if _inf(rb) > 1e-7 * scale:
                raise SingularKktError("bordered solve residual too large")
        if _inf(r0) > 1e-7 * scale:
            raise SingularKktError("bordered solve residual too large")
        return z, w


def _kkt_step(fac: _KktFactor, d: np.ndarray, sigma: float, n: int, m: int,
              eq_resid: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """EQP step p and equality multipliers lam on the working set of ``fac``.

    Solves [[sigma Q_FF, A_F'], [A_F, 0]] [p; y] = [-d_F; eq_resid] as
    [[Q_FF, A_F'], [A_F, 0]] [p; y/sigma] = [-d_F/sigma; eq_resid] on the
    sigma-free factor; lam = -y.
    """
    g = d / -sigma
    rhs0 = np.zeros(fac.N0)
    rhs0[: fac.nb] = g[fac.base_free]
    if eq_resid is not None:
        rhs0[fac.nb:] = eq_resid[fac.rows]
    rhsb = np.array(
        [g[j] if kind == "free" else 0.0 for kind, j in fac.border]
    )
    z, w = fac.solve(rhs0, rhsb)
    p = np.zeros(n)
    p[fac.base_free] = z[: fac.nb]
    for i, (kind, j) in enumerate(fac.border):
        p[j] = w[i] if kind == "free" else 0.0
    lam = np.zeros(m)
    lam[fac.rows] = -sigma * z[fac.nb:]
    return p, lam


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
        self.quad = problem.quad
        # mutable per-solve state
        self.x = np.zeros(self.n)
        self.status = np.full(self.n, AT_LOWER, dtype=np.int8)
        self.factor: _KktFactor | None = None
        self.pivots = 0
        self.pivot_log: list = []
        self.obj_trace: list = []
        self.used_phase1 = False
        self.factor_reused = False
        self._handed: _KktFactor | None = None  # the warm basis's factor
        self._degen_streak = 0
        self._bland = False
        self._rows_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Hessian products
    # ------------------------------------------------------------------

    def _hmatvec(self, v: np.ndarray) -> np.ndarray:
        """sigma * Q @ v."""
        return self.sigma * self.quad.matvec(v)

    def _gradient(self) -> np.ndarray:
        return self.g + self._hmatvec(self.x)

    # ------------------------------------------------------------------
    # Working-set bookkeeping and factorization management
    # ------------------------------------------------------------------

    def _free_idx(self) -> np.ndarray:
        return np.flatnonzero(self.status == BASIC)

    def _kept_rows(self) -> np.ndarray:
        """Equality rows kept in the working KKT system.

        A pivoted QR finds the rows that are linear combinations of the
        others on the non-pinned columns: duplicate or dependent rows, and
        rows implied once the pinned (lower == upper) variables are
        substituted.  They are verified for consistency and dropped with
        zero multipliers.  Runs once per engine, on its first fresh build.
        """
        if self._rows_cache is not None:
            return self._rows_cache
        live = np.flatnonzero(~self.pinned)
        M = self.A[:, live]
        scale = 1.0 + _inf(self.poly.b) + _inf(self.A)
        rank, piv = _qr_rank(M.T)
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
        """Free additional variables until A[rows, free] has full row rank.

        One pivoted QR without Q decides the rank; only a deficient block
        is factored again, with Q, for the basis of its column span."""
        M = self.A[np.ix_(rows, self._free_idx())]
        rank, _ = _qr_rank(M)
        if rank == rows.size:
            return
        U = (scipy.linalg.qr(M, mode="economic", pivoting=True)[0][:, :rank]
             if rank else None)
        candidates = np.flatnonzero((self.status != BASIC) & ~self.pinned)
        while rank < rows.size:
            if candidates.size == 0:
                raise SingularKktError(
                    "equality rows cannot be spanned by releasable variables"
                )
            R = self.A[np.ix_(rows, candidates)]
            resid = R - U @ (U.T @ R) if rank else R
            norms = np.linalg.norm(resid, axis=0)
            best = int(np.argmax(norms))
            if norms[best] <= 1e-10 * (1.0 + float(np.abs(R).max(initial=0.0))):
                raise SingularKktError("equality rows are linearly dependent")
            j = int(candidates[best])
            self.status[j] = BASIC
            u_new = resid[:, best] / norms[best]
            U = np.column_stack([U, u_new]) if rank else u_new.reshape(-1, 1)
            rank += 1
            candidates = candidates[candidates != j]

    def _build_factor(self):
        """Factor the KKT system of the current free set.

        The first build of a solve adopts a copy of the warm basis's factor
        instead when that factor serves the free set; later builds are
        refactorizations and always start from scratch.
        """
        handed, self._handed = self._handed, None
        if handed is not None and handed.serves(self.poly, self.quad,
                                                self.pinned,
                                                self.status == BASIC):
            self.factor = handed.copy()
            self._rows_cache = handed.rows  # row analysis depends on poly only
            self.factor_reused = True
            return
        rows = self._kept_rows()
        self._ensure_row_rank(rows)
        self.factor = _KktFactor(self.poly, self.quad, self.pinned, rows,
                                 self._free_idx())

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

    def _direction(self, d: np.ndarray, eq_resid: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """EQP step p and equality multipliers lam at the current working set."""
        return _kkt_step(self.factor, d, self.sigma, self.n, self.m, eq_resid)

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

    def _primal_loop(self) -> tuple[QpStatus, np.ndarray]:
        """Primal active-set pivots from a feasible x; returns the status and
        the equality multipliers of the last direction solve."""
        d = self._gradient()
        refresh = 0
        lam = np.zeros(self.m)
        while True:
            if self.pivots >= self.pivot_cap:
                return QpStatus.ITER_LIMIT, lam
            p, lam = self._direction(d)
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
            rc = d - self.A.T @ lam
            j, side_viol = self._worst_violation(rc)
            if j is None:
                return QpStatus.OPTIMAL, lam
            self._free_var(j)
            self._count_pivot(("drop", int(j), int(side_viol)), 0.0)

    def _worst_violation(self, rc: np.ndarray) -> tuple[int | None, int]:
        viol_tol = 0.5 * OPT_TOL
        scan = (self.status != BASIC) & ~self.pinned
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

    def _dual_loop(self) -> bool:
        """Factor the warm basis, then fix the free variable that violates
        its bound most until the equality-restoring step lands inside the
        bounds.  Returns whether it did so within the pivot cap."""
        self._build_factor()
        for _ in range(self.pivot_cap + 1):
            d = self._gradient()
            resid = self.poly.b - self.A @ self.x
            p, _ = self._direction(d, resid)
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
                return True
            self._fix_var(worst, worst_side)
            self._count_pivot(("dfix", worst, int(worst_side)), 1.0)
        return False

    # ------------------------------------------------------------------
    # Phase 1: a feasible vertex from a zero-objective LP
    # ------------------------------------------------------------------

    def _phase1(self):
        """Project x onto its working set's bounds; if the equalities still
        fail, restart from the vertex of a zero-objective LP.  Then factor."""
        self._project()
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

    def _project(self):
        """Clip x into its bounds and put fixed variables on theirs."""
        np.clip(self.x, self.lower, self.upper, out=self.x)
        at_lo = self.status == AT_LOWER
        at_up = self.status == AT_UPPER
        self.x[at_lo] = self.lower[at_lo]
        self.x[at_up] = self.upper[at_up]

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
        self._project()

    def solve(self, warm: WorkingBasis | None = None,
              mode: StartMode = StartMode.PRIMAL_START,
              warm_x: np.ndarray | None = None) -> QpSolution:
        self._normalize_basis(warm, warm_x)
        self._handed = warm.factor if warm is not None else None
        try:
            try:
                if not (mode == StartMode.DUAL_START and warm is not None
                        and self._dual_loop()):
                    self._phase1()
            except SingularKktError:
                self._phase1()  # builds a fresh factor
            state, resumed_at = None, None
            while state is None:
                try:
                    state, lam = self._primal_loop()
                except SingularKktError:
                    if self.pivots == resumed_at:
                        raise  # no pivot since the last refactorization
                    resumed_at = self.pivots
                    self._refactor()
        except InfeasibleError:
            return self._package(np.zeros(self.m), QpStatus.INFEASIBLE)
        return self._package(lam, state)

    def _package(self, lam: np.ndarray, state: QpStatus) -> QpSolution:
        mu_lower = np.zeros(self.n)
        mu_upper = np.zeros(self.n)
        objective, handover = math.inf, None
        if state != QpStatus.INFEASIBLE:
            rc = self._gradient() - self.A.T @ lam
            at_lo = (self.status == AT_LOWER) & ~self.pinned
            at_up = (self.status == AT_UPPER) & ~self.pinned
            mu_lower[at_lo] = np.maximum(rc[at_lo], 0.0)
            mu_upper[at_up] = np.maximum(-rc[at_up], 0.0)
            mu_lower[self.pinned] = np.maximum(rc[self.pinned], 0.0)
            mu_upper[self.pinned] = np.maximum(-rc[self.pinned], 0.0)
            objective = self.p.objective(self.x)
            if self.factor is not None and not self.factor.needs_refactor:
                handover = self.factor
        return QpSolution(
            x=self.x.copy(), lam=lam.copy(), mu_lower=mu_lower,
            mu_upper=mu_upper, objective=objective,
            basis=WorkingBasis(self.status.copy(), handover),
            iterations=self.pivots, status=state,
            used_phase1=self.used_phase1, factor_reused=self.factor_reused,
            pivot_log=list(self.pivot_log),
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


def scale_ray(problem: QpProblem, sol: QpSolution
              ) -> tuple[np.ndarray, np.ndarray] | None:
    """Derivatives of a QP solution along the Hessian scale, working set fixed.

    With s = 1/sigma, the EQP solution of ``sol``'s working set satisfies
    [[Q_FF, A_F'], [A_F, 0]] [x_F; -s lam] = [-s c_F - Q_FN x_N; b - A_N x_N],
    so x and s lam are affine in s.  One bordered solve on the factor the
    solution hands over, with right-hand side [-c_F; 0], returns their slopes
    (dx/ds, d(s lam)/ds).  None when the solution carries no factor or the
    solve finds the system singular.
    """
    fac = sol.basis.factor
    if fac is None:
        return None
    try:
        return _kkt_step(fac, problem.linear, 1.0, problem.poly.n,
                         problem.poly.m)
    except SingularKktError:
        return None


def solve_qp(problem: QpProblem, warm: WorkingBasis | None = None,
             mode: StartMode = StartMode.PRIMAL_START,
             warm_x: np.ndarray | None = None,
             pivot_cap: int | None = None,
             track_objective: bool = False) -> QpSolution:
    """Solve a convex QP (sigma > 0) over {Ax = b, l <= x <= u} with the
    active-set engine; LPs go to ``solve_lp`` and raise ``ValueError`` here.

    ``warm`` carries the variable statuses of a related solve.  PrimalStart
    restores primal feasibility through Phase-1; DualStart fixes
    bound-violating variables of a dual-feasible basis, the cheap restart
    after tightening bounds.  A Phase-1 LP that HiGHS leaves unsolved raises
    ``LpFailureError``; a KKT system that stays singular through the
    engine's recovery raises ``SingularKktError``.
    """
    eng = ActiveSetEngine(problem, pivot_cap=pivot_cap,
                          track_objective=track_objective)
    return eng.solve(warm, mode, warm_x)
