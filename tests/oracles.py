"""Independent reference solvers used to check the package's fast paths.

Nothing here shares code with the active-set engine: the QP oracle is an
accelerated projected-gradient method with Dykstra projections, the tiny-QP
oracle enumerates bound-status patterns outright, and the conic oracle is a
golden-section search on the one-dimensional value function g(t).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from conicqp import QpProblem, solve_lp, solve_qp, subproblem_objective


class _DualProjector:
    """Euclidean projection onto {Ax = b} /\\ [l, u] via its dual.

    The projection is x(lam) = clip(y + A' lam, l, u) where lam maximizes a
    concave C^1 dual with gradient b - A x(lam); a damped semismooth Newton
    iteration on that gradient converges in a few steps, and the multiplier
    is warm-started across calls.
    """

    def __init__(self, poly):
        self.poly = poly
        self.lam = np.zeros(poly.m)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        poly = self.poly
        A, b, lo, hi = poly.A, poly.b, poly.lower, poly.upper
        if poly.m == 0:
            return np.clip(y, lo, hi)
        lam = self.lam.copy()
        scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
        w = A.T @ lam
        for _ in range(200):
            x = np.clip(y + w, lo, hi)
            r = b - A @ x
            if np.max(np.abs(r)) <= 1e-13 * scale:
                break
            free = (x > lo) & (x < hi)
            d = r
            if free.any():
                M = A[:, free] @ A[:, free].T
                M[np.diag_indices_from(M)] += 1e-14
                try:
                    cand = np.linalg.solve(M, r)
                    if cand @ r > 0:  # keep an ascent direction for the dual
                        d = cand
                except np.linalg.LinAlgError:
                    pass
            s = A.T @ d

            def dphi(t):
                return float(d @ (b - A @ np.clip(y + w + t * s, lo, hi)))

            # exact concave line search: dphi is piecewise linear and
            # non-increasing in t, with breakpoints where coordinates clip
            nz = np.abs(s) > 1e-15
            pts = []
            for bound in (lo, hi):
                tb = (bound[nz] - y[nz] - w[nz]) / s[nz]
                pts.extend(tb[tb > 1e-15])
            pts = sorted(set(pts))
            t_star = None
            t_prev, h_prev = 0.0, dphi(0.0)
            if h_prev <= 0:
                break
            for tk in pts:
                hk = dphi(tk)
                if hk <= 0:
                    slope = (hk - h_prev) / (tk - t_prev) if tk > t_prev else 0.0
                    t_star = t_prev - h_prev / slope if slope < 0 else tk
                    break
                t_prev, h_prev = tk, hk
            if t_star is None:
                inf_free = nz & ((y + w + 1e30 * s > lo) & (y + w + 1e30 * s < hi))
                slope = -float(s[inf_free] @ s[inf_free])
                if slope < -1e-30:
                    t_star = t_prev - h_prev / slope
                else:
                    t_star = t_prev + 1.0  # flat tail: advance past the kinks
            lam = lam + t_star * d
            w = w + t_star * s
        self.lam = lam
        return np.clip(y + w, lo, hi)


def project_polyhedron(poly, y: np.ndarray) -> np.ndarray:
    return _DualProjector(poly)(y)


def projected_gradient_qp(problem: QpProblem, tol: float = 1e-10,
                          max_iter: int = 20000) -> tuple[np.ndarray, float]:
    """Accelerated projected gradient (FISTA with restarts) for small QPs.

    Runs until the iterate movement falls below ``tol``; suitable as an
    independent oracle for problems with a handful of variables.
    """
    poly = problem.poly
    n = poly.n
    H = problem.sigma * problem.quad.dense() if problem.sigma > 0 else np.zeros((n, n))
    g = problem.linear
    eigs = np.linalg.eigvalsh(H) if n else np.zeros(1)
    L = max(float(eigs[-1]), 1e-8)
    step = 1.0 / L

    def grad(v):
        return g + H @ v

    proj = _DualProjector(poly)
    x = proj(np.clip(np.zeros(n), poly.lower, poly.upper))
    z = x.copy()
    tk = 1.0
    f_prev = problem.objective(x)
    for _ in range(max_iter):
        x_new = proj(z - step * grad(z))
        f_new = problem.objective(x_new)
        if f_new > f_prev + 1e-15:  # objective restart
            z = x.copy()
            tk = 1.0
            x_new = proj(z - step * grad(z))
            f_new = problem.objective(x_new)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        z = x_new + ((tk - 1.0) / t_next) * (x_new - x)
        move = float(np.max(np.abs(x_new - x), initial=0.0))
        x, tk, f_prev = x_new, t_next, f_new
        if move <= 100 * tol:
            # confirm with the fixed-point residual at x itself
            fp = float(np.max(np.abs(x - proj(x - step * grad(x))), initial=0.0))
            if fp <= tol:
                break
    return x, problem.objective(x)


def enumerate_tiny_qp(problem: QpProblem) -> tuple[np.ndarray | None, float]:
    """Exact optimum of a tiny QP by enumerating bound-status patterns.

    Minimizes on every face (variables free or pinned at a bound), keeps the
    feasible candidates, and returns the best; exact for convex objectives
    because the optimal active set is among the patterns.
    """
    poly = problem.poly
    n, m = poly.n, poly.m
    H = problem.sigma * problem.quad.dense() if problem.sigma > 0 else np.zeros((n, n))
    best, bx = math.inf, None
    for pattern in itertools.product((0, 1, 2), repeat=n):
        fixed = [i for i, s in enumerate(pattern) if s]
        free = [i for i, s in enumerate(pattern) if not s]
        xf = np.zeros(n)
        for i in fixed:
            xf[i] = poly.lower[i] if pattern[i] == 1 else poly.upper[i]
        nf = len(free)
        K = np.zeros((nf + m, nf + m))
        K[:nf, :nf] = H[np.ix_(free, free)]
        K[:nf, nf:] = poly.A[:, free].T
        K[nf:, :nf] = poly.A[:, free]
        rhs = np.concatenate([
            -(problem.linear[free]
              + (H[np.ix_(free, fixed)] @ xf[fixed] if fixed else 0.0)),
            poly.b - (poly.A[:, fixed] @ xf[fixed] if fixed else 0.0),
        ])
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
        if np.max(np.abs(K @ sol - rhs), initial=0.0) > 1e-8:
            continue
        x = xf
        x[free] = sol[:nf]
        if m and np.max(np.abs(poly.A @ x - poly.b)) > 1e-8:
            continue
        if np.any(x < poly.lower - 1e-9) or np.any(x > poly.upper + 1e-9):
            continue
        v = problem.objective(np.clip(x, poly.lower, poly.upper))
        if v < best:
            best, bx = v, x.copy()
    return bx, best


def golden_section_g(inst, t_hi: float | None = None, tol: float = 1e-9,
                     t_lo: float = 1e-12) -> float:
    """Minimize the value function g(t) by golden-section search.

    Every evaluation is a QP at fixed t (engine at its 1e-9 tolerances,
    warm-started along the search); returns the best objective seen.
    """
    if t_hi is None:
        lp = solve_lp(subproblem_objective(inst, math.inf))
        t_hi = max(math.sqrt(max(inst.q.quad(lp.x), 0.0)), 1e-6) * (1 + 1e-9)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    prev = None

    def g(t):
        nonlocal prev
        sol = solve_qp(subproblem_objective(inst, t),
                       warm=prev.basis if prev else None,
                       warm_x=prev.x if prev else None)
        prev = sol
        return sol.objective

    a, b = t_lo, t_hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = g(c), g(d)
    best = min(fc, fd)
    while b - a > tol * (1.0 + b):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = g(d)
        best = min(best, fc, fd)
    return best
