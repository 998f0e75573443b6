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
and their solves call LAPACK's ``getrf`` and ``getrs`` directly, and each
row-rank test its one pivoted QR, ``geqp3``, not through SciPy's wrappers,
whose fixed cost per call exceeds a small factor's arithmetic.  That one QR
serves the whole test: ``orgqr`` forms its Q when a rank-deficient block
needs a basis of its span, and its triangle gives dropped rows' combination
of the kept ones as ``R11^-1 R12``.  Each LU's pivot test (a pivot exactly
zero or below a relative tolerance) is the only report of singularity.  A
solution's basis carries its final factor, and the next QP on the same
polyhedron and quadratic form adopts a copy of it when its free set
matches, so a warm QP that takes no pivots costs one solve and no
factorization.  The same factor gives ``scale_ray``, the slopes of a
solution's x and sigma-scaled multipliers along 1/sigma with the working
set fixed, in one more bordered solve.  LPs, Phase-1 included, are no
``QpProblem`` (whose sigma lies in (0, inf)): ``solve_lp(c, poly)`` solves
them cold in the HiGHS dual simplex, and their vertex and multipliers come
back in the engine's conventions, ready to warm-start a QP.

Work per primal pivot, with F the free set, r the number of columns of W
in ``Q = W W' + diag(D)``, N0 the order of the base and k the border's
length: the direction solve (``free_step``), which keeps the free set and
reads the gradient on F only, costs O(N0^2 + N0 k + k^3); the zero-step
test, the ratio test and the update of x, of the gradient on F and of the
kept W'x cost O(|F| r); fixing or freeing a variable changes one border
entry in O(N0^2 + N0 k), plus O(|F| r) for a freed variable's column of
Q, and updates the pricing signs in O(1).  Two things cost O(n): |x|_inf,
which scales the step and ratio tests, is one pass over x per pivot; and
pricing, once per full or zero step, reads the reduced costs of all
variables, ``_gradient`` from x and the kept W'x less A'lam, in one
O(n (r + m)) pass.  Every 64 steps, and after each
refactorization, W'x and the gradient are formed afresh from x.  Every
product runs in NumPy's BLAS; SciPy's serves only the LAPACK calls.

A KKT system found singular is recovered in one place, ``solve``: a dual
start that finds it singular falls back to Phase-1, which builds a fresh
factor; inside the primal loop the engine builds a fresh factorization and
resumes, provided a pivot was made since the last such recovery.  A
Phase-1 build found singular, or a system that stays singular, raises
``SingularKktError``.
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
PRICE_TOL = 0.5 * OPT_TOL  # a fixed variable prices in above this
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


# the routines behind scipy.linalg.lu_factor, lu_solve and the pivoted qr,
# without their wrappers
_getrf, _getrs, _geqp3, _orgqr = scipy.linalg.get_lapack_funcs(
    ("getrf", "getrs", "geqp3", "orgqr"))

# the zero-step threshold's factor: 64 ulps of the direction solve's
# right-hand side
_ZERO_STEP_ULPS = 64 * np.finfo(float).eps


# Reductions of a 1-d v through argmax and argmin, which on short arrays cost
# a fraction of numpy's max and min; like those, they return NaN when v holds
# one.

def _max(v: np.ndarray) -> float:
    return float(v[v.argmax()])


def _min(v: np.ndarray) -> float:
    return float(v[v.argmin()])


def _inf(v: np.ndarray) -> float:
    """max |v_i| over the entries of v; 0 for an empty v."""
    a = np.abs(v).ravel()
    return _max(a) if a.size else 0.0


def _lu(M: np.ndarray, rtol: float, what: str):
    """LU factors and pivots of M from LAPACK's getrf; raises
    SingularKktError on a pivot below rtol times the largest.  That test is
    the only report of singularity: it rejects the exactly zero pivot that
    getrf flags, so getrf's status is not read."""
    lu, piv, _ = _getrf(M)
    du = np.abs(lu.diagonal())
    if du.size:
        low = _min(du)
        if low == 0.0 or low < rtol * _max(du):
            raise SingularKktError(f"{what} is singular")
    return lu, piv


def _lu_solve(lu, rhs: np.ndarray) -> np.ndarray:
    """Solve with the factors ``_lu`` returned (LAPACK's getrs)."""
    return _getrs(*lu, rhs)[0]


def _pivoted_qr(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LAPACK's geqp3 on a nonempty M, as ``scipy.linalg.qr(M,
    pivoting=True)`` calls it, workspace query included, so R and the
    pivots are the same bits: returns the packed factor (R in its upper
    triangle, the Householder vectors below it), their scalars tau, and
    the 0-based column order."""
    lwork = int(_geqp3(M, lwork=-1)[3][0])
    qr, jpvt, tau, *_ = _geqp3(M, lwork=lwork)
    return qr, tau, jpvt - 1


def _qr_q(qr: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The orthonormal factor of a packed QR, min(rows, columns) columns of
    it, from LAPACK's orgqr as ``scipy.linalg.qr(M, mode="economic")``
    calls it, workspace query included, so Q is the same bits."""
    lwork = int(_orgqr(qr[:, :tau.size], tau, lwork=-1)[1][0])
    return _orgqr(qr[:, :tau.size], tau, lwork=lwork)[0]


def _qr_rank(M: np.ndarray) -> tuple:
    """Numerical rank of M and its pivoted QR: the count of |r_ii| above
    1e-11 max(1, |r_11|), then ``_pivoted_qr``'s packed factor, tau and
    column order.  An empty M has rank 0, itself as its factor, no tau and
    the identity order."""
    if M.size == 0:
        return 0, M, np.zeros(0), np.arange(M.shape[1])
    qr, tau, piv = _pivoted_qr(M)
    diag = np.abs(np.diag(qr))
    tol = 1e-11 * max(1.0, diag.max(initial=0.0))
    return int(np.sum(diag > tol)), qr, tau, piv


def _signs(status: np.ndarray, pinned: np.ndarray) -> np.ndarray:
    """-1 at a lower bound, +1 at an upper bound, 0 for free and pinned
    variables: ``rc * sign`` is how far each fixed, non-pinned variable's
    reduced cost rc points into its free range, so that freeing it would
    lower the objective, and 0 for the others."""
    sign = np.zeros(status.shape)
    sign[status == AT_LOWER] = -1.0
    sign[status == AT_UPPER] = 1.0
    sign[pinned] = 0.0
    return sign


@dataclass
class QpProblem:
    """min linear'x + (sigma/2) x'Qx + offset over a bounded polyhedron, with
    0 < sigma < inf and Q of the polyhedron's size; LPs go to ``solve_lp``."""

    linear: np.ndarray
    quad: QuadraticForm
    sigma: float
    offset: float
    poly: Polyhedron

    def __post_init__(self):
        self.linear = np.asarray(self.linear, dtype=float).ravel()
        self.sigma = float(self.sigma)
        # written so that a NaN sigma fails it
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, "
                             f"got {self.sigma!r}")
        if self.linear.shape != (self.poly.n,):
            raise ValueError("linear term has wrong length")
        if self.quad.n != self.poly.n:
            raise ValueError("quadratic form has wrong size")

    def objective(self, x: np.ndarray) -> float:
        return (float(self.linear @ x) + self.offset
                + 0.5 * self.sigma * self.quad.quad(x))


def _gradient(problem: QpProblem, x: np.ndarray, wx: np.ndarray) -> np.ndarray:
    """linear + sigma Q x over all variables, from x and wx = W'x, as
    linear + sigma (W wx + D x) in one O(n r) pass.  The engine's gradient,
    its reduced costs and ``working_set_holds`` all form it here, in this
    order."""
    quad = problem.quad
    d = quad.W @ wx
    d += quad.D * x
    d *= problem.sigma
    d += problem.linear
    return d


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

    The base matrix ``K0 = [[Q_FF, A_F'], [A_F, 0]]`` covers the free set F
    at (re)factorization time and the kept equality rows.  It holds no
    Hessian scale: ``[[sigma Q, A'], [A, 0]] [p; y] = [r0; r1]`` is the same
    system as ``[[Q, A'], [A, 0]] [p; y/sigma] = [r0/sigma; r1]``, so one
    factor serves every ``sigma``.  Later working-set changes append border
    entries, at most one per variable: fixing a base variable adds a unit
    constraint pinning it, freeing any other variable adds its KKT column.
    Solves go through the Schur complement ``S = C - B'Y`` of the border
    block, with ``Y = K0^-1 B``; ``S`` is kept up to date, one row and one
    column per border change, in the manner of the Schur-complement QP
    method of Gill, Murray, Saunders and Wright (1990), and LU-factored when
    a solve needs it.  ``free_step`` is the direction solve: the step on the
    free set and the equality multipliers of the working set for a gradient
    and a Hessian scale; ``step`` gives the same step over all variables.

    The unknowns of the bordered system are ordered once: the base
    variables' steps, the kept rows' multipliers, then one per border entry,
    a fix entry's multiplier or a freed variable's step.  ``solve`` takes
    one right-hand side and returns one solution in this order.  ``_var``
    gives each slot's variable (-1 for a row's multiplier), so an entry is a
    fix entry exactly when its variable is in the base (``_pos``, each
    variable's base slot, is not -1); ``_live`` tells whether the slot is a
    free variable's step (false for a base variable a fix entry pins, a
    row's multiplier and a fix entry's).  So the free set, in the factor's
    order, is ``_var[_live]``, and a solve needs no Python loop over the
    border.  The border arrays hold entry i in row i of ``_bt`` (B') and
    ``_yt`` (Y') and in row and column i of ``_c`` (C) and ``_s`` (S), with
    spare rows that double when full; ``B``, ``Y``, ``C`` and ``S`` are
    views of the ``k`` live entries.

    A factor refers to the polyhedron, quadratic form and pinned mask it was
    built on, never to an engine, so a solution can hand it to the next QP.
    """

    def __init__(self, poly, quad, pinned, rows, base_free):
        self.poly, self.quad, self.pinned = poly, quad, pinned
        self.A = poly.A
        self.rows = np.asarray(rows, dtype=int)
        self.base_free = np.asarray(base_free, dtype=int)
        nb, mr = len(self.base_free), len(self.rows)
        self.nb, self.mr, self.N0 = nb, mr, nb + mr
        self._pos = np.full(poly.n, -1)
        self._pos[self.base_free] = np.arange(nb)
        K0 = np.zeros((self.N0, self.N0))
        K0[:nb, :nb] = quad.block(self.base_free, self.base_free)
        Afb = self.A[np.ix_(self.rows, self.base_free)]
        K0[:nb, nb:] = Afb.T
        K0[nb:, :nb] = Afb
        self.K0 = K0
        self.lu = _lu(K0, 1e-14, "base KKT matrix") if self.N0 else None
        self.k = 0
        self._bt = np.zeros((4, self.N0))
        self._yt = np.zeros((4, self.N0))
        self._c = np.zeros((4, 4))
        self._s = np.zeros((4, 4))
        self._var = np.concatenate([self.base_free, np.full(mr + 4, -1)])
        self._live = np.arange(self.N0 + 4) < nb
        self._s_lu = None
        self.updates = 0
        self.needs_refactor = False

    @property
    def B(self) -> np.ndarray:
        return self._bt[: self.k].T

    @property
    def Y(self) -> np.ndarray:
        return self._yt[: self.k].T

    @property
    def C(self) -> np.ndarray:
        return self._c[: self.k, : self.k]

    @property
    def S(self) -> np.ndarray:
        return self._s[: self.k, : self.k]

    def free_vars(self) -> np.ndarray:
        """The free set, in the order of the unknowns ``free_step`` solves
        for: the base variables no fix entry pins, then the freed ones."""
        n = self.N0 + self.k
        return self._var[:n][self._live[:n]]

    def copy(self) -> "_KktFactor":
        """A copy with its own border arrays, trimmed to the live entries
        (at least the initial four rows), so a QP that adopts a factor and
        takes no pivot copies no spare rows; the base LU and ``_pos``, never
        written after construction, are shared."""
        c = copy.copy(self)
        n = max(self.k, 4)
        c._bt, c._yt = self._bt[:n].copy(), self._yt[:n].copy()
        c._c, c._s = self._c[:n, :n].copy(), self._s[:n, :n].copy()
        c._var = self._var[: self.N0 + n].copy()
        c._live = self._live[: self.N0 + n].copy()
        return c

    def serves(self, poly, quad, pinned, free_mask) -> bool:
        """Whether this factor is the KKT system of ``free_mask`` on ``poly``
        and ``quad`` with the given pinned mask, without pending refactor."""
        if poly is not self.poly or quad is not self.quad or self.needs_refactor:
            return False
        if not np.array_equal(pinned, self.pinned):
            return False
        mine = np.zeros(poly.n, dtype=bool)
        mine[self.free_vars()] = True
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

    def _append(self, j, col, cross, diag):
        """Add border entry k for variable j, with B column ``col``, C row
        ``cross`` and C diagonal ``diag``; S gains row and column k in
        O(N0 k).  The two are formed apart, as ``C - B'Y`` forms them, so S
        keeps the round-off asymmetry a from-scratch product would have."""
        y = self._k0_solve(col)
        if _inf(y) > GROWTH_LIMIT:
            self.needs_refactor = True
        k, at = self.k, self.N0 + self.k
        if k == len(self._c):  # full: k more spare rows, k more columns of C, S
            arrays = (self._bt, self._yt, self._c, self._s, self._var, self._live)
            self._bt, self._yt, c, s, self._var, self._live = (
                np.concatenate([a, np.zeros_like(a[:k])]) for a in arrays)
            self._c, self._s = (np.hstack([a, np.zeros_like(a)]) for a in (c, s))
        self._bt[k], self._yt[k] = col, y
        self._c[:k, k] = self._c[k, :k] = cross
        self._c[k, k] = diag
        self._s[:k, k] = cross - self._bt[:k] @ y
        self._s[k, :k] = cross - self._yt[:k] @ col
        self._s[k, k] = diag - col @ y
        base = int(self._pos[j])
        self._var[at] = j
        self._live[at] = base < 0
        if base >= 0:
            self._live[base] = False
        self.k += 1
        self._mark_update()

    def _remove(self, j: int):
        """Delete variable j's border entry: its row of B', Y', its row and
        column of C and S and its slot, shifting the later entries up in
        place."""
        k, base = self.k, int(self._pos[j])
        idx = self._var[self.N0:self.N0 + k].tolist().index(j)
        at = self.N0 + idx
        for a in (self._bt, self._yt, self._c, self._s):
            a[idx:k - 1] = a[idx + 1:k]
        for a in (self._c, self._s):
            a[:k - 1, idx:k - 1] = a[:k - 1, idx + 1:k]
        for a in (self._var, self._live):
            a[at:self.N0 + k - 1] = a[at + 1:self.N0 + k]
        if base >= 0:
            self._live[base] = True
        self.k -= 1
        self._mark_update()

    def fix(self, j: int):
        """Pin variable j (currently free) at its bound: a base variable
        gains a fix entry, a freed one loses its free entry."""
        j = int(j)
        if self._pos[j] < 0:
            self._remove(j)
            return
        col = np.zeros(self.N0)
        col[self._pos[j]] = 1.0
        cross = np.zeros(self.k)  # unit rows never touch border vars
        self._append(j, col, cross, 0.0)

    def free(self, j: int):
        """Release variable j (currently fixed) into the free set: a base
        variable loses its fix entry, another one gains a free entry."""
        j = int(j)
        if self._pos[j] >= 0:
            self._remove(j)
            return
        nb, N0, k = self.nb, self.N0, self.k
        live = self._live[N0:N0 + k]
        idx = np.concatenate([self.base_free, self._var[N0:N0 + k][live], [j]])
        h = self.quad.column(idx, j)  # Q[idx, j]
        col = np.zeros(N0)
        col[:nb] = h[:nb]
        if self.mr:
            col[nb:] = self.A[self.rows, j]
        cross = np.zeros(k)  # a fix entry's unit row is 0 at j
        cross[live] = h[nb:-1]
        self._append(j, col, cross, float(h[-1]))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the bordered system [[K0, B], [B', C]] u = rhs, with rhs and
        u in the order of the unknowns, raising ``SingularKktError`` when
        the solution's residual is too large."""
        N0, k = self.N0, self.k
        r0, rb = rhs[:N0], rhs[N0:]
        z = self._k0_solve(r0)
        tol = 1e-7 * (1.0 + _inf(rhs))
        if k:
            bt, yt = self._bt[:k], self._yt[:k]
            if self._s_lu is None:
                self._s_lu = _lu(self._s[:k, :k], 1e-13, "border Schur complement")
            w = _lu_solve(self._s_lu, rb - yt @ r0)
            z = z - yt.T @ w
            resid = np.concatenate([self.K0 @ z - r0 + bt.T @ w,
                                    bt @ z + self._c[:k, :k] @ w - rb])
            u = np.concatenate([z, w])
        else:
            u, resid = z, self.K0 @ z - r0
        # written so that a NaN residual fails the check
        if not _inf(resid) <= tol:
            raise SingularKktError("bordered solve residual too large")
        return u

    def free_step(self, d: np.ndarray, sigma: float,
                  eq_resid: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """EQP step on this working set: the free set F (``free_vars``),
        the step p_F and the equality multipliers lam.

        Solves [[sigma Q_FF, A_F'], [A_F, 0]] [p; y] = [-d_F; eq_resid] as
        [[Q_FF, A_F'], [A_F, 0]] [p; y/sigma] = [-d_F/sigma; eq_resid] on the
        sigma-free factor; lam = -y.  Reads d at the factor's variables only:
        on F, and at the base variables fix entries pin, where d only moves
        the pinning entry's own multiplier, so any finite value serves.
        """
        nb, N0, n = self.nb, self.N0, self.N0 + self.k
        var, live = self._var[:n], self._live[:n]
        reads_d = live | (np.arange(n) < nb)
        rhs = np.zeros(n)
        rhs[reads_d] = d[var[reads_d]] / -sigma
        if eq_resid is not None:
            rhs[nb:N0] = eq_resid[self.rows]
        u = self.solve(rhs)
        lam = np.zeros(self.A.shape[0])
        lam[self.rows] = -sigma * u[nb:N0]
        return var[live], u[live], lam

    def step(self, d: np.ndarray, sigma: float,
             eq_resid: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
        """``free_step``'s step over all variables, zero off F, and lam."""
        free, pf, lam = self.free_step(d, sigma, eq_resid)
        p = np.zeros(self.A.shape[1])
        p[free] = pf
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
        self.quad = problem.quad
        # mutable per-solve state
        self.x = np.zeros(self.n)
        self.status = np.full(self.n, AT_LOWER, dtype=np.int8)
        self.factor: _KktFactor | None = None
        self.pivot_log: list = []
        self.obj_trace: list = []
        self.used_phase1 = False
        self.factor_reused = False
        self._handed: _KktFactor | None = None  # the warm basis's factor
        self._degen_streak = 0
        self._bland = False
        # pivot state, kept up to date by each pivot: the pricing sign of
        # every variable (see _signs), the gradient d (exact on the free
        # set), W'x, and the steps taken since d and W'x were last formed
        # from x
        self.sign = np.zeros(self.n)
        self.d = np.zeros(self.n)
        self._wx = np.zeros(self.quad.r)
        self._steps = 0

    # ------------------------------------------------------------------
    # Gradient
    # ------------------------------------------------------------------

    def _form_gradient(self):
        """Form W'x and the gradient d = g + sigma Q x over all variables
        from x; the step count starts again."""
        self._wx = self.quad.W.T @ self.x
        self.d = _gradient(self.p, self.x, self._wx)
        self._steps = 0

    def _reduced_costs(self, lam: np.ndarray) -> np.ndarray:
        """rc = g + sigma Q x - A'lam over all variables, from x and the kept
        W'x: the gradient's O(n r) pass, then A'lam in O(n m).  ``.dot``
        reaches BLAS even when A has one row, where ``@`` does not (about
        1 against 10 us at n = 3,200), and needs no guard for an empty
        lam."""
        rc = _gradient(self.p, self.x, self._wx)
        rc -= self.A.T.dot(lam)
        return rc

    def _move(self, free: np.ndarray, dx: np.ndarray):
        """x_F += dx, with W'x and d on the free set F kept up to date in
        O(|F| r): sigma Q dx restricted to F is sigma (W_F (W_F' dx) + D_F
        dx), as dx is zero off F.  Every 64th step forms W'x and d afresh."""
        self.x[free] += dx
        WF = self.quad.W[free]
        wdx = WF.T @ dx
        self._wx += wdx
        self.d[free] += self.sigma * (WF @ wdx + self.quad.D[free] * dx)
        self._steps += 1
        if self._steps >= 64:
            self._form_gradient()

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
        zero multipliers.  Runs when the engine has no factor yet; later
        builds take the rows from the factor they replace, since the row
        analysis depends on the polyhedron and the pinned set alone.
        """
        live = np.flatnonzero(~self.pinned)
        scale = 1.0 + _inf(self.poly.b) + _inf(self.A)
        rank, qr, _, piv = _qr_rank(self.A[:, live].T)
        kept, dropped = piv[:rank], piv[rank:]
        if dropped.size:
            # on the live columns the dropped rows are the kept rows times
            # alpha = R11^-1 R12, so each dropped row minus its combination
            # has support only on pinned columns: x decides consistency now
            alpha = scipy.linalg.solve_triangular(
                qr[:rank, :rank], qr[:rank, rank:], check_finite=False)
            lhs = (self.A[dropped] - alpha.T @ self.A[kept]) @ self.x
            rhs = self.poly.b[dropped] - alpha.T @ self.poly.b[kept]
            if _inf(lhs - rhs) > 1e-7 * scale:
                raise InfeasibleError(
                    "equality rows implied by fixed variables are violated"
                )
        return np.sort(kept)

    def _ensure_row_rank(self, rows: np.ndarray):
        """Free additional variables until A[rows, free] has full row rank.

        One pivoted QR decides the rank; only for a deficient block is its
        Q formed, whose leading columns span the block's columns."""
        M = self.A[np.ix_(rows, self._free_idx())]
        rank, qr, tau, _ = _qr_rank(M)
        if rank == rows.size:
            return
        U = _qr_q(qr, tau)[:, :rank]
        candidates = np.flatnonzero((self.status != BASIC) & ~self.pinned)
        while rank < rows.size:
            if candidates.size == 0:
                raise SingularKktError(
                    "equality rows cannot be spanned by releasable variables"
                )
            R = self.A[np.ix_(rows, candidates)]
            resid = R - U @ (U.T @ R)
            norms = np.linalg.norm(resid, axis=0)
            best = int(np.argmax(norms))
            if norms[best] <= 1e-10 * (1.0 + float(np.abs(R).max(initial=0.0))):
                raise SingularKktError("equality rows are linearly dependent")
            j = int(candidates[best])
            self.status[j] = BASIC
            u_new = resid[:, best] / norms[best]
            U = np.column_stack([U, u_new])
            rank += 1
            candidates = candidates[candidates != j]

    def _build_factor(self):
        """Factor the KKT system of the current free set.

        The first build of a solve adopts a copy of the warm basis's factor
        instead when that factor serves the free set; later builds are
        refactorizations and always start from scratch, with the kept rows
        of the factor they replace.
        """
        handed, self._handed = self._handed, None
        if handed is not None and handed.serves(self.poly, self.quad,
                                                self.pinned,
                                                self.status == BASIC):
            self.factor = handed.copy()
            self.factor_reused = True
        else:
            rows = (self._kept_rows() if self.factor is None
                    else self.factor.rows)
            self._ensure_row_rank(rows)
            self.factor = _KktFactor(self.poly, self.quad, self.pinned, rows,
                                     self._free_idx())
        self.sign = _signs(self.status, self.pinned)

    def _refactor(self):
        """A fresh factor; it may free more variables (``_ensure_row_rank``),
        so d is formed afresh too."""
        self._build_factor()
        self._form_gradient()

    def _fix_var(self, j: int, side: int):
        self.status[j] = side
        self.sign[j] = -1.0 if side == AT_LOWER else 1.0
        self.x[j] = self.lower[j] if side == AT_LOWER else self.upper[j]
        self.factor.fix(j)
        if self.factor.needs_refactor:
            self._refactor()

    def _free_var(self, j: int):
        """Free j; d_j, not kept while j was fixed, is formed from W'x."""
        self.status[j] = BASIC
        self.sign[j] = 0.0
        self.d[j] = self.g[j] + self.sigma * (self.quad.W[j] @ self._wx
                                              + self.quad.D[j] * self.x[j])
        self.factor.free(j)
        if self.factor.needs_refactor:
            self._refactor()

    # ------------------------------------------------------------------
    # Primal active-set loop
    # ------------------------------------------------------------------

    def _ratio_test(self, free: np.ndarray, pf: np.ndarray, rate: np.ndarray,
                    p_inf: float, xf: np.ndarray, x_inf: float
                    ) -> tuple[float, int, int]:
        """Two-pass (Harris) ratio test along the step pf on the free set.

        Takes the pivot's free set, step, |p_F|, |p_F|_inf, x_F and
        |x|_inf; returns the largest step, the blocking variable's position
        in the free set and the bound it blocks at.  Pass one finds the
        smallest step with every bound relaxed by the feasibility
        tolerance; pass two blocks on the candidate with the largest |p_j|
        among those whose exact step fits under it.  Choosing large pivots
        keeps the working set numerically well conditioned; the bound
        overshoot this allows is at most the feasibility tolerance.
        """
        at = (rate > RATIO_TOL * max(1.0, p_inf)).nonzero()[0]
        idx, up, rate, xm = free[at], pf[at] > 0, rate[at], xf[at]
        gap = np.maximum(np.where(up, self.upper[idx] - xm,
                                  xm - self.lower[idx]), 0.0)
        # no choice below depends on the candidates' order: min is exact,
        # and ties go to the smaller index
        alphas = gap / rate
        if self._bland:
            alpha_best = _min(alphas)
            near = alphas <= alpha_best + 1e-13 * (1.0 + alpha_best)
            k = int(near.nonzero()[0][idx[near].argmin()])
        else:
            ftol = FEAS_TOL * (1.0 + x_inf)
            alpha_relaxed = _min((gap + ftol) / rate)
            cand = (alphas <= alpha_relaxed).nonzero()[0]
            k = int(cand[np.lexsort((idx[cand], -rate[cand]))[0]])
        return float(alphas[k]), int(at[k]), AT_UPPER if up[k] else AT_LOWER

    def _primal_loop(self) -> tuple[QpStatus, np.ndarray]:
        """Primal active-set pivots from a feasible x; returns the status and
        the equality multipliers of the last direction solve.

        A pivot costs O(|F| r) besides the direction solve: the step, the
        ratio test and the updates of x, W'x and d touch the free set F
        alone.  |x|_inf is one O(n) pass per pivot, and pricing reads the
        reduced costs of all variables, one O(n (r + m)) pass per full or
        zero step."""
        self._form_gradient()
        lam = np.zeros(self.m)
        while True:
            if len(self.pivot_log) >= self.pivot_cap:
                return QpStatus.ITER_LIMIT, lam
            free, pf, lam = self.factor.free_step(self.d, self.sigma)
            rate = np.abs(pf)
            p_inf = _max(rate) if rate.size else 0.0
            xf = self.x[free]
            x_inf = _inf(self.x)
            # |p_F| within 64 ulps of the solve's right-hand side d_F / sigma
            # is round-off, not a step: at tiny sigma such noise blocked on
            # the variable just freed, and those two pivots cycled
            noise = _ZERO_STEP_ULPS * _inf(self.d[free]) / self.sigma
            if p_inf > 1e-11 * (1.0 + x_inf) + noise:
                alpha_max, i, side = self._ratio_test(free, pf, rate, p_inf,
                                                      xf, x_inf)
                alpha = min(1.0, alpha_max)
                blocker = int(free[i])
                dx = alpha * pf
                if alpha_max < 1.0:  # the step ends on the blocker's bound
                    bound = self.upper if side == AT_UPPER else self.lower
                    dx[i] = bound[blocker] - xf[i]
                if dx[i]:  # 0 only for a zero step onto a blocker on its bound
                    self._move(free, dx)
                if alpha_max < 1.0:
                    self._fix_var(blocker, side)
                    self._count_pivot(("block", blocker, side), alpha)
                    continue
                # full step: x is now the EQP optimum and lam from this
                # solve certifies it
            j, side_viol = self._worst_violation(self._reduced_costs(lam))
            if j is None:
                self._restore_equalities()
                return QpStatus.OPTIMAL, lam
            self._free_var(j)
            self._count_pivot(("drop", j, side_viol), 0.0)

    def _restore_equalities(self):
        """Put an optimal x that drifted off Ax = b back on it.

        At tiny sigma the direction solves check their residuals against
        right-hand sides scaled by 1/sigma, so the steps can drift off the
        equalities.  The restoring step with zero gradient moves the free
        variables back; it is taken only if it keeps them within their
        bounds, and lam is kept."""
        resid = self.poly.b - self.A @ self.x
        if _inf(resid) <= FEAS_TOL * (1.0 + _inf(self.poly.b)):
            return
        xn, worst = self._restoring_step(np.zeros(self.n), resid)
        if worst is None:
            self.x = xn

    def _restoring_step(self, d: np.ndarray, resid: np.ndarray
                        ) -> tuple[np.ndarray, tuple[int, int] | None]:
        """x plus the working set's step with gradient d onto Ax = b, where
        b - Ax is ``resid``, and the free variable that violates its bound
        most there by more than ``FEAS_TOL (1 + |x|_inf)``, with the bound's
        side, or None.  The step is zero off the free set and the fixed
        variables sit on their bounds, so only the free ones are tested."""
        xn = self.x + self.factor.step(d, self.sigma, resid)[0]
        free = self._free_idx()
        ftol = FEAS_TOL * (1.0 + _inf(xn))
        # lower-bound violations come first, so a tie names the lower bound;
        # the closing ftol stands for "none", which keeps argmax defined on
        # an empty free set
        viol = np.concatenate([self.lower[free] - xn[free],
                               xn[free] - self.upper[free], [ftol]])
        k = int(np.argmax(viol))
        if viol[k] <= ftol:
            return xn, None
        return xn, (int(free[k % free.size]),
                    AT_LOWER if k < free.size else AT_UPPER)

    def _worst_violation(self, rc: np.ndarray) -> tuple[int | None, int]:
        """The fixed variable to free, from the reduced costs rc, which it
        overwrites: the lowest violating index in Bland mode, else the
        largest violation; None when nothing prices in."""
        viol = np.multiply(rc, self.sign, out=rc)
        j = int((viol > PRICE_TOL).argmax() if self._bland else viol.argmax())
        if viol[j] <= PRICE_TOL:
            return None, AT_LOWER
        return j, int(self.status[j])

    def _count_pivot(self, entry, alpha: float):
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
        bounds.  Returns whether it did so within the pivot cap; a KKT
        system found singular ends it too, and Phase-1 then builds a fresh
        factor."""
        try:
            self._build_factor()
            for _ in range(self.pivot_cap + 1):
                self._form_gradient()
                self.x, worst = self._restoring_step(
                    self.d, self.poly.b - self.A @ self.x)
                if worst is None:
                    np.clip(self.x, self.lower, self.upper, out=self.x)
                    return True
                self._fix_var(*worst)
                self._count_pivot(("dfix", *worst), 1.0)
        except SingularKktError:
            pass
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
            lp = solve_lp(np.zeros(self.n), self.poly)
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
            st = np.asarray(warm.status)
            if st.shape != (self.n,):
                raise ValueError("warm basis has wrong length")
            # checked before the int8 cast, which would wrap 300 to 44
            if not ((st == BASIC) | (st == AT_LOWER) | (st == AT_UPPER)).all():
                raise ValueError("warm basis holds a status other than "
                                 "BASIC, AT_LOWER and AT_UPPER")
            self.status = st.astype(np.int8)
        self.status[self.pinned] = AT_LOWER
        if warm_x is not None:
            self.x = np.asarray(warm_x, dtype=float).copy()
            if self.x.shape != (self.n,):
                raise ValueError("warm point has wrong length")
            if not np.isfinite(self.x).all():
                raise ValueError("warm point must be finite")
        self._project()

    def solve(self, warm: WorkingBasis | None = None,
              mode: StartMode = StartMode.PRIMAL_START,
              warm_x: np.ndarray | None = None) -> QpSolution:
        self._normalize_basis(warm, warm_x)
        self._handed = warm.factor if warm is not None else None
        try:
            if not (mode == StartMode.DUAL_START and warm is not None
                    and self._dual_loop()):
                self._phase1()
            state, resumed_at = None, None
            while state is None:
                try:
                    state, lam = self._primal_loop()
                except SingularKktError:
                    if len(self.pivot_log) == resumed_at:
                        raise  # no pivot since the last refactorization
                    resumed_at = len(self.pivot_log)
                    self._refactor()
        except InfeasibleError:
            return self._package(np.zeros(self.m), QpStatus.INFEASIBLE)
        return self._package(lam, state)

    def _package(self, lam: np.ndarray, state: QpStatus) -> QpSolution:
        mu_lower = np.zeros(self.n)
        mu_upper = np.zeros(self.n)
        objective, handover = math.inf, None
        if state != QpStatus.INFEASIBLE:
            self._wx = self.quad.W.T @ self.x  # x may have moved since
            rc = self._reduced_costs(lam)
            # a pinned variable is always AT_LOWER: _normalize_basis and
            # solve_lp set it so, and neither pricing nor _ensure_row_rank
            # frees it; it takes both multipliers, split by the sign of rc
            at_lo = self.status == AT_LOWER
            at_up = (self.status == AT_UPPER) | self.pinned
            mu_lower[at_lo] = np.maximum(rc[at_lo], 0.0)
            mu_upper[at_up] = np.maximum(-rc[at_up], 0.0)
            objective = self.p.objective(self.x)
            if self.factor is not None and not self.factor.needs_refactor:
                handover = self.factor
        return QpSolution(
            x=self.x.copy(), lam=lam.copy(), mu_lower=mu_lower,
            mu_upper=mu_upper, objective=objective,
            basis=WorkingBasis(self.status.copy(), handover),
            iterations=len(self.pivot_log), status=state,
            used_phase1=self.used_phase1, factor_reused=self.factor_reused,
            pivot_log=list(self.pivot_log),
            objective_trace=list(self.obj_trace),
        )


def solve_lp(c: np.ndarray, poly: Polyhedron) -> QpSolution:
    """Solve the LP min c'x over the polyhedron with HiGHS.

    Runs the dual simplex of ``scipy.optimize.linprog``.  Multipliers follow
    the engine's convention ``c - A'lam - mu_lower + mu_upper = 0``.  The
    basis fixes a variable at the bound it sits on unless its reduced cost
    is zero; those stay Basic with the interior ones, so a degenerate vertex
    (a grid path sits entirely at 0 or 1) hands a warm QP a free set of full
    row rank.  Raises ``InfeasibleError`` for an infeasible LP and
    ``LpFailureError`` when HiGHS stops without an answer.
    """
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
        objective=float(c @ x), basis=WorkingBasis(status),
        iterations=int(res.nit), status=QpStatus.OPTIMAL)


def scale_ray(linear: np.ndarray, sol: QpSolution
              ) -> tuple[np.ndarray, np.ndarray] | None:
    """Derivatives of a QP solution along the Hessian scale, working set fixed.

    With s = 1/sigma and c the QP's ``linear`` term, the EQP solution of
    ``sol``'s working set satisfies
    [[Q_FF, A_F'], [A_F, 0]] [x_F; -s lam] = [-s c_F - Q_FN x_N; b - A_N x_N],
    so x and s lam are affine in s.  One bordered solve on the factor the
    solution hands over, with right-hand side [-c_F; 0], returns their slopes
    (dx/ds, d(s lam)/ds).  None when the solution carries no factor (as an
    LP's never does) or the solve finds the system singular.
    """
    fac = sol.basis.factor
    if fac is None:
        return None
    try:
        return fac.step(linear, 1.0)
    except SingularKktError:
        return None


def working_set_holds(problem: QpProblem, status: np.ndarray, x: np.ndarray,
                      lam: np.ndarray) -> bool:
    """Whether ``status`` is an optimal working set of ``problem`` at x with
    equality multipliers lam, to the engine's tolerances: every free
    variable lies within ``FEAS_TOL (1 + |x|_inf)`` of its bounds, and no
    fixed variable prices in, so the engine would stop at x without a pivot.
    """
    poly = problem.poly
    free = status == BASIC
    tol = FEAS_TOL * (1.0 + _inf(x))
    if (np.any(x[free] < poly.lower[free] - tol)
            or np.any(x[free] > poly.upper[free] + tol)):
        return False
    rc = _gradient(problem, x, problem.quad.W.T @ x)
    rc -= poly.A.T.dot(lam)
    return not np.any(rc * _signs(status, poly.lower == poly.upper) > PRICE_TOL)


def solve_qp(problem: QpProblem, warm: WorkingBasis | None = None,
             mode: StartMode = StartMode.PRIMAL_START,
             warm_x: np.ndarray | None = None,
             pivot_cap: int | None = None,
             track_objective: bool = False) -> QpSolution:
    """Solve a convex QP over {Ax = b, l <= x <= u} with the active-set
    engine; an LP is no ``QpProblem`` and goes to ``solve_lp``.

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
