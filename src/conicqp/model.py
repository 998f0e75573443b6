"""Domain types and objective/optimality math for conic quadratic minimization.

The problem solved throughout the package is

    min  c'x + omega * sqrt(x'Qx)   s.t.   Ax = b,  lower <= x <= upper,

with Q positive semidefinite, stored in factored form Q = F (H H') F' + diag(D).
This module holds the data model plus the scalar pieces every solver needs:
objective evaluation, the perspective function h(x, t), construction of the
fixed-t quadratic subproblem, the gradient of the risk term, KKT residuals,
and the dual-feasibility estimate used as a stopping test by the outer loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sps

# Threshold below which x'Qx is treated as exactly zero (separates a true
# zero quadratic from accumulated round-off).
QZERO_TOL = 1e-12

# Dense n x n copies of Q are only cached up to this dimension.
DENSE_CACHE_MAX_N = 4000


class ZeroQuadraticError(ValueError):
    """Raised where x'Qx ~ 0 makes the gradient of the risk term undefined.

    Callers hitting this are in the t -> 0 regime and must branch to the
    degenerate handling (return the current point with a TZero status).
    """


class InfeasibleError(RuntimeError):
    """Raised when a feasibility phase proves the constraint set empty."""


class LpFailureError(RuntimeError):
    """Raised when the LP solver stops with neither an optimal vertex nor a
    proof of infeasibility (iteration limit, numerical trouble)."""


@dataclass
class QuadraticForm:
    """PSD matrix Q = F (H H') F' + diag(D), kept in factored form.

    Attributes:
        F: (n, r) factor-loading matrix.
        sigma_factor: (r, r) matrix H; the factor covariance is H @ H.T.
        D: (n,) nonnegative diagonal.
        dense_cache: optional dense Q, built lazily for n <= 4000.
    """

    F: np.ndarray
    sigma_factor: np.ndarray
    D: np.ndarray
    dense_cache: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.F = np.ascontiguousarray(self.F, dtype=float)
        self.sigma_factor = np.ascontiguousarray(self.sigma_factor, dtype=float)
        self.D = np.ascontiguousarray(self.D, dtype=float)
        if self.F.ndim != 2:
            raise ValueError("F must be a 2-d array")
        n, r = self.F.shape
        if self.sigma_factor.shape != (r, r):
            raise ValueError(
                f"sigma_factor must be ({r}, {r}), got {self.sigma_factor.shape}"
            )
        if self.D.shape != (n,):
            raise ValueError(f"D must have length {n}, got {self.D.shape}")
        if np.any(self.D < 0):
            raise ValueError("D entries must be nonnegative")
        # W = F H has Q = W W' + diag(D); precomputed once, used everywhere.
        self._W = self.F @ self.sigma_factor

    @property
    def n(self) -> int:
        return self.F.shape[0]

    @property
    def r(self) -> int:
        return self.F.shape[1]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Q @ x via the factored form (or the dense cache when built)."""
        if self.dense_cache is not None:
            return self.dense_cache @ x
        return self._W @ (self._W.T @ x) + self.D * x

    def quad(self, x: np.ndarray) -> float:
        """x'Qx, computed as |W'x|^2 + sum D x^2 (nonnegative up to round-off)."""
        if x.shape != (self.n,):
            raise ValueError(f"x must have length {self.n}, got {x.shape}")
        w = self._W.T @ x
        return float(w @ w + self.D @ (x * x))

    def dense(self) -> np.ndarray:
        """Dense Q, cached for n <= 4000; recomputed on the fly above that."""
        if self.dense_cache is None:
            q = self._W @ self._W.T
            q[np.diag_indices_from(q)] += self.D
            q = 0.5 * (q + q.T)
            if self.n <= DENSE_CACHE_MAX_N:
                self.dense_cache = q
            return q
        return self.dense_cache

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Q[rows][:, cols], from the dense cache when it is built."""
        if self.dense_cache is not None:
            return self.dense_cache[np.ix_(rows, cols)]
        blk = self._W[rows] @ self._W[cols].T
        blk += np.where(rows[:, None] == cols, self.D[cols], 0.0)
        return blk

    def diagonal(self) -> np.ndarray:
        """diag(Q) = row norms of W squared plus D."""
        return np.einsum("ij,ij->i", self._W, self._W) + self.D


@dataclass
class Polyhedron:
    """Feasible region {x : Ax = b, lower <= x <= upper} with finite bounds."""

    A: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if sps.issparse(self.A):
            self.A = np.asarray(self.A.todense(), dtype=float)
        else:
            self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float).ravel()
        self.lower = np.asarray(self.lower, dtype=float).ravel()
        self.upper = np.asarray(self.upper, dtype=float).ravel()
        m, n = self.A.shape
        if self.b.shape != (m,):
            raise ValueError(f"b must have length {m}, got {self.b.shape}")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bound vectors must have length n")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValueError("bounds must be finite (feasible set must be bounded)")
        if not np.all(np.isfinite(self.A)) or not np.all(np.isfinite(self.b)):
            raise ValueError("A and b must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("lower > upper for some variable")

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def contains(self, x: np.ndarray, tol: float = 1e-7) -> bool:
        """Feasibility within absolute tolerance tol (scaled by problem data)."""
        scale = 1.0 + float(np.max(np.abs(self.b), initial=0.0))
        if self.m and np.max(np.abs(self.A @ x - self.b)) > tol * scale:
            return False
        bscale = 1.0 + float(np.max(np.abs(x)))
        return bool(
            np.all(x >= self.lower - tol * bscale)
            and np.all(x <= self.upper + tol * bscale)
        )


@dataclass
class ConicInstance:
    """A conic quadratic minimization instance, optionally with integer variables."""

    c: np.ndarray
    omega: float
    q: QuadraticForm
    poly: Polyhedron
    integer_vars: tuple[int, ...] = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.omega = float(self.omega)
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        n = self.q.n
        if self.c.shape != (n,):
            raise ValueError(f"c must have length {n}, got {self.c.shape}")
        if self.poly.n != n:
            raise ValueError("polyhedron and quadratic form dimensions disagree")
        self.integer_vars = tuple(sorted(int(i) for i in set(self.integer_vars)))
        if self.integer_vars and not (
            0 <= self.integer_vars[0] and self.integer_vars[-1] < n
        ):
            raise ValueError("integer_vars out of range")

    @property
    def n(self) -> int:
        return self.q.n


class SolveStatus(Enum):
    OPTIMAL = "Optimal"
    TOLERANCE_REACHED = "ToleranceReached"
    ITER_LIMIT = "IterLimit"
    T_ZERO = "TZero"


@dataclass
class KktCertificate:
    """Multipliers and violation measures for the conic problem at a point.

    ``lam`` are the equality multipliers; ``mu_lower``/``mu_upper`` are the
    nonnegative multipliers of active lower/upper bounds (the net bound
    multiplier is mu_lower - mu_upper).
    """

    lam: np.ndarray
    mu_lower: np.ndarray
    mu_upper: np.ndarray
    residual_inf: float = 0.0
    comp_viol: float = 0.0


@dataclass
class ConicSolveResult:
    """Outcome of a convex solve (coordinate descent or bisection)."""

    x: np.ndarray
    t: float
    objective: float
    kkt: KktCertificate | None
    qp_count: int
    pivot_count: int
    trace: list[tuple[float, float]]
    status: SolveStatus
    stop_reason: str = ""
    qp_pivots: list[int] = field(default_factory=list)
    phase1_count: int = 0
    first_qp_used_phase1: bool = False
    interval_trace: list[tuple[float, float]] = field(default_factory=list)
    basis: object | None = None  # WorkingBasis of the final QP (warm-start token)


def eval_objective(inst: ConicInstance, x: np.ndarray) -> float:
    """c'x + omega * sqrt(x'Qx); tiny negative round-off in x'Qx is clamped."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (inst.n,):
        raise ValueError(f"x must have length {inst.n}, got {x.shape}")
    return float(inst.c @ x) + inst.omega * math.sqrt(max(inst.q.quad(x), 0.0))


def eval_h(q: QuadraticForm, x: np.ndarray, t: float) -> float:
    """Closure of the perspective of x'Qx: x'Qx / t for t > 0.

    At t = 0 the value is 0 when x'Qx vanishes (within QZERO_TOL) and +inf
    otherwise. Negative t is rejected.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    xqx = q.quad(np.asarray(x, dtype=float).ravel())
    if t > 0:
        return xqx / t
    return 0.0 if xqx <= QZERO_TOL else math.inf


def subproblem_objective(inst: ConicInstance, t: float):
    """Quadratic subproblem at fixed t: min c'x + (omega/2t) x'Qx + (omega/2) t.

    Returns a ``QpProblem`` with quadratic scale sigma = omega / t (the engine
    objective is linear'x + (sigma/2) x'Qx + offset) and offset (omega/2) t,
    so the reported QP objective equals the value function g(t).  Passing
    t = inf yields the pure LP relaxation (sigma = 0, offset dropped).
    """
    from .qp import QpProblem  # local import to avoid a cycle

    if not t > 0:
        raise ValueError("t must be positive (use t=inf for the LP relaxation)")
    if math.isinf(t):
        return QpProblem(linear=inst.c, quad=inst.q, sigma=0.0, offset=0.0,
                         poly=inst.poly)
    return QpProblem(linear=inst.c, quad=inst.q, sigma=inst.omega / t,
                     offset=0.5 * inst.omega * t, poly=inst.poly)


def grad_f(inst: ConicInstance, x: np.ndarray) -> np.ndarray:
    """Gradient of f(x) = omega * sqrt(x'Qx), i.e. omega * Qx / sqrt(x'Qx)."""
    x = np.asarray(x, dtype=float).ravel()
    xqx = inst.q.quad(x)
    if xqx <= QZERO_TOL:
        raise ZeroQuadraticError(
            f"x'Qx = {xqx:.3e} is below the zero threshold; gradient undefined"
        )
    return inst.omega * inst.q.matvec(x) / math.sqrt(xqx)


def kkt_residual(inst: ConicInstance, x: np.ndarray,
                 cert: KktCertificate) -> float:
    """Infinity norm of the stationarity residual of the conic problem.

    The residual is c + grad_f(x) - A'lam - mu_lower + mu_upper; the
    certificate's ``residual_inf`` and ``comp_viol`` fields are refreshed.
    Requires a feasible x (within 1e-7) with x'Qx above the zero threshold.
    """
    x = np.asarray(x, dtype=float).ravel()
    if not inst.poly.contains(x, tol=1e-7):
        raise ValueError("x is not feasible within 1e-7")
    g = grad_f(inst, x)  # raises ZeroQuadraticError in the degenerate regime
    r = inst.c + g - inst.poly.A.T @ cert.lam - cert.mu_lower + cert.mu_upper
    cert.residual_inf = float(np.max(np.abs(r), initial=0.0))
    slack_lo = np.abs(cert.mu_lower * (x - inst.poly.lower))
    slack_up = np.abs(cert.mu_upper * (inst.poly.upper - x))
    cert.comp_viol = float(max(np.max(slack_lo, initial=0.0),
                               np.max(slack_up, initial=0.0)))
    return cert.residual_inf


def dual_bound_estimate(inst: ConicInstance, x_next: np.ndarray, t_prev: float,
                        t_next: float, qp_eps: float) -> float:
    """Upper bound on the conic stationarity violation after one outer step.

    Equals qp_eps + (|t_next - t_prev| / t_prev) * ||grad_f(x_next)||_inf.
    The infinity norm matches the per-coordinate dual tolerances of the
    QP engine.
    """
    if not t_prev > 0:
        raise ValueError("t_prev must be positive")
    g = grad_f(inst, x_next)
    return qp_eps + abs(t_next - t_prev) / t_prev * float(np.max(np.abs(g)))
