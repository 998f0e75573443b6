"""Active-set QP engine: examples, warm starts, dual restarts, invariants."""

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import conicqp.qp
from conicqp import (
    LpFailureError,
    Polyhedron,
    QpProblem,
    QpStatus,
    QuadraticForm,
    StartMode,
    reoptimize_after_bound_change,
    solve_qp,
)
from conicqp.generate import gen_quadratic

from oracles import enumerate_tiny_qp, projected_gradient_qp


def identity_form(n):
    return QuadraticForm(F=np.zeros((n, 1)), sigma_factor=np.zeros((1, 1)),
                         D=np.ones(n))


def simplex_poly(n=2):
    return Polyhedron(A=np.ones((1, n)), b=[1.0], lower=np.zeros(n),
                      upper=np.ones(n))


def random_problem(rng, n=None, m=None, sigma=None):
    n = n or int(rng.integers(2, 9))
    m = m if m is not None else int(rng.integers(0, min(n, 4)))
    q = QuadraticForm(F=rng.uniform(-1, 1, (n, 3)) * (rng.random((n, 3)) < 0.7),
                      sigma_factor=rng.uniform(-1, 1, (3, 3)),
                      D=rng.uniform(0.05, 1.0, n))
    A = rng.uniform(-2, 2, (m, n))
    lo = rng.uniform(-2, 0, n)
    hi = lo + rng.uniform(0.2, 3.0, n)
    b = A @ rng.uniform(lo, hi) if m else np.zeros(0)
    poly = Polyhedron(A=A if m else np.zeros((0, n)), b=b, lower=lo, upper=hi)
    sigma = sigma if sigma is not None else float(rng.uniform(0.05, 2.0))
    return QpProblem(linear=rng.uniform(-2, 2, n), quad=q, sigma=sigma,
                     offset=0.0, poly=poly)


def stationarity(p, sol):
    d = p.linear + (p.sigma * p.quad.matvec(sol.x) if p.sigma > 0 else 0.0)
    r = d - p.poly.A.T @ sol.lam - sol.mu_lower + sol.mu_upper
    return float(np.max(np.abs(r), initial=0.0))


class TestExamples:
    def test_lp_vertex(self):
        p = QpProblem(linear=np.array([1.0, 2.0]), quad=identity_form(2),
                      sigma=0.0, offset=0.0, poly=simplex_poly())
        s = solve_qp(p)
        np.testing.assert_allclose(s.x, [1.0, 0.0], atol=1e-9)
        assert s.objective == pytest.approx(1.0, abs=1e-9)

    def test_qp_projection(self):
        p = QpProblem(linear=np.zeros(2), quad=identity_form(2), sigma=1.0,
                      offset=0.0, poly=simplex_poly())
        s = solve_qp(p)
        np.testing.assert_allclose(s.x, [0.5, 0.5], atol=1e-9)
        assert s.objective == pytest.approx(0.25, abs=1e-9)

    def test_box_qp(self):
        poly = Polyhedron(A=np.zeros((0, 1)), b=[], lower=[0.0], upper=[1.0])
        p = QpProblem(linear=np.array([-2.0]), quad=identity_form(1),
                      sigma=1.0, offset=0.0, poly=poly)
        s = solve_qp(p)
        np.testing.assert_allclose(s.x, [1.0], atol=1e-10)
        assert s.objective == pytest.approx(-1.5, abs=1e-10)

    def test_infeasible(self):
        poly = Polyhedron(A=np.ones((1, 2)), b=[10.0], lower=[0, 0],
                          upper=[1, 1])
        p = QpProblem(linear=np.zeros(2), quad=identity_form(2), sigma=1.0,
                      offset=0.0, poly=poly)
        assert solve_qp(p).status == QpStatus.INFEASIBLE

    def test_iter_limit(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, n=8, m=2)
        s = solve_qp(p, pivot_cap=1)
        assert s.status in (QpStatus.ITER_LIMIT, QpStatus.OPTIMAL)


class TestLp:
    def test_enumeration_oracle_and_multipliers(self):
        rng = np.random.default_rng(55)
        worst_stat = worst_comp = 0.0
        for _ in range(200):
            p = random_problem(rng, n=int(rng.integers(1, 7)), sigma=0.0)
            s = solve_qp(p)
            assert s.status == QpStatus.OPTIMAL
            _, ref = enumerate_tiny_qp(p)
            assert abs(s.objective - ref) <= 1e-9 * (1 + abs(ref))
            gap_lo = s.mu_lower * (s.x - p.poly.lower)
            gap_up = s.mu_upper * (p.poly.upper - s.x)
            worst_stat = max(worst_stat, stationarity(p, s))
            worst_comp = max(worst_comp, np.max(np.abs(gap_lo), initial=0.0),
                             np.max(np.abs(gap_up), initial=0.0))
        assert worst_stat <= 1e-9
        assert worst_comp <= 1e-7

    def test_highs_without_answer_raises(self, monkeypatch):
        monkeypatch.setattr(conicqp.qp, "linprog", lambda *a, **k: OptimizeResult(
            status=1, message="Iteration limit reached.", x=None, nit=1))
        lp = QpProblem(linear=np.array([1.0, 2.0]), quad=identity_form(2),
                       sigma=0.0, offset=0.0, poly=simplex_poly())
        with pytest.raises(LpFailureError):
            solve_qp(lp)
        # a cold QP needs a Phase-1 vertex from the same LP solver
        qp = QpProblem(linear=np.zeros(2), quad=identity_form(2), sigma=1.0,
                       offset=0.0, poly=simplex_poly())
        with pytest.raises(LpFailureError):
            solve_qp(qp)


class TestWarmStarts:
    def test_warm_equals_cold_on_100_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = random_problem(rng)
            cold = solve_qp(p)
            # warm from a nearby scale, as the outer loops do
            p_near = QpProblem(linear=p.linear, quad=p.quad,
                               sigma=p.sigma * 1.3, offset=0.0, poly=p.poly)
            prior = solve_qp(p_near)
            warm = solve_qp(p, warm=prior.basis, warm_x=prior.x)
            assert warm.status == QpStatus.OPTIMAL
            assert warm.objective == pytest.approx(
                cold.objective, abs=1e-9 * (1 + abs(cold.objective)))

    def test_warm_start_chain_pivots_collapse(self):
        rng = np.random.default_rng(3)
        n = 50
        q = gen_quadratic(n, 6, 0.3, rng)
        poly = Polyhedron(A=np.ones((1, n)), b=[n / 5.0], lower=np.zeros(n),
                          upper=np.ones(n))
        c = -np.sqrt(q.diagonal()) * rng.random(n)
        prev = None
        pivots = []
        for sg in (2.0, 1.5, 1.2, 1.1, 1.05):
            p = QpProblem(linear=c, quad=q, sigma=sg, offset=0.0, poly=poly)
            prev = (solve_qp(p) if prev is None
                    else solve_qp(p, warm=prev.basis, warm_x=prev.x))
            pivots.append(prev.iterations)
        assert sum(pivots[2:]) <= pivots[0]

    def test_basis_only_warm_start(self):
        rng = np.random.default_rng(8)
        p = random_problem(rng, n=12, m=2)
        cold = solve_qp(p)
        warm = solve_qp(p, warm=cold.basis)  # statuses, no point
        assert warm.objective == pytest.approx(cold.objective, abs=1e-8)

    def test_determinism_identical_pivot_logs(self):
        rng = np.random.default_rng(11)
        p = random_problem(rng, n=15, m=3)
        a = solve_qp(p)
        b = solve_qp(p)
        assert a.pivot_log == b.pivot_log
        np.testing.assert_array_equal(a.basis.status, b.basis.status)


class TestReoptimize:
    def _card_problem(self, n=30, sigma=1.2, seed=4):
        rng = np.random.default_rng(seed)
        q = gen_quadratic(n, 5, 0.4, rng)
        poly = Polyhedron(A=np.ones((1, n)), b=[n / 5.0], lower=np.zeros(n),
                          upper=np.ones(n))
        c = -2 * np.sqrt(q.diagonal()) * rng.random(n)
        return QpProblem(linear=c, quad=q, sigma=sigma, offset=0.0, poly=poly)

    def test_satisfied_bound_zero_pivots(self):
        p = self._card_problem()
        base = solve_qp(p)
        j = int(np.flatnonzero(base.x < 1e-12)[0])
        up = p.poly.upper.copy()
        up[j] = 0.0
        p2 = QpProblem(linear=p.linear, quad=p.quad, sigma=p.sigma, offset=0.0,
                       poly=Polyhedron(p.poly.A, p.poly.b, p.poly.lower, up))
        res = reoptimize_after_bound_change(base, p2)
        assert res.iterations == 0
        np.testing.assert_allclose(res.x, base.x, atol=1e-10)

    def test_lp_vertex_tightening(self):
        p = QpProblem(linear=np.array([1.0, 2.0, 3.0]), quad=identity_form(3),
                      sigma=0.0, offset=0.0, poly=simplex_poly(3))
        base = solve_qp(p)
        np.testing.assert_allclose(base.x, [1, 0, 0], atol=1e-9)
        up = p.poly.upper.copy()
        up[0] = 0.0
        p2 = QpProblem(linear=p.linear, quad=p.quad, sigma=0.0, offset=0.0,
                       poly=Polyhedron(p.poly.A, p.poly.b, p.poly.lower, up))
        res = reoptimize_after_bound_change(base, p2)
        np.testing.assert_allclose(res.x, [0, 1, 0], atol=1e-9)

    def test_child_objective_dominates_parent(self):
        p = self._card_problem(seed=6)
        base = solve_qp(p)
        rng = np.random.default_rng(0)
        for _ in range(20):
            j = int(rng.integers(0, p.poly.n))
            lo = p.poly.lower.copy()
            up = p.poly.upper.copy()
            if rng.random() < 0.5:
                up[j] = 0.0
            else:
                lo[j] = 1.0
            p2 = QpProblem(linear=p.linear, quad=p.quad, sigma=p.sigma,
                           offset=0.0,
                           poly=Polyhedron(p.poly.A, p.poly.b, lo, up))
            res = reoptimize_after_bound_change(base, p2)
            if res.status == QpStatus.OPTIMAL:
                assert res.objective >= base.objective - 1e-8
                cold = solve_qp(p2)
                assert res.objective == pytest.approx(
                    cold.objective, abs=1e-8 * (1 + abs(cold.objective)))


class TestInvariants:
    def test_oracle_equivalence_small(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            p = random_problem(rng)
            s = solve_qp(p)
            assert s.status == QpStatus.OPTIMAL
            _, ref = projected_gradient_qp(p)
            assert abs(s.objective - ref) <= 1e-6
            assert stationarity(p, s) <= 1e-9 * (1 + np.abs(p.linear).max())

    def test_exact_enumeration_small(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            p = random_problem(rng, n=int(rng.integers(1, 7)))
            s = solve_qp(p)
            _, ref = enumerate_tiny_qp(p)
            assert abs(s.objective - ref) <= 1e-7 * (1 + abs(ref))

    def test_monotone_objective_across_pivots(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_problem(rng, n=12, m=2)
            s = solve_qp(p, track_objective=True)
            tr = s.objective_trace
            for a, b in zip(tr, tr[1:]):
                assert b <= a + 1e-12 * (1 + abs(a))

    def test_complementarity(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            p = random_problem(rng)
            s = solve_qp(p)
            gap_lo = s.mu_lower * (s.x - p.poly.lower)
            gap_up = s.mu_upper * (p.poly.upper - s.x)
            assert np.max(np.abs(gap_lo), initial=0.0) <= 1e-7
            assert np.max(np.abs(gap_up), initial=0.0) <= 1e-7
