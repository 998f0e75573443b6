"""Active-set QP engine: examples, warm starts, dual restarts, invariants."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import OptimizeResult

import conicqp.qp
import conicqp.solvers
from conicqp import (
    ConicInstance,
    LpFailureError,
    Polyhedron,
    QpProblem,
    QpStatus,
    QuadraticForm,
    SingularKktError,
    SolveStatus,
    StartMode,
    solve_bisection,
    solve_cd,
    solve_lp,
    solve_qp,
)
from conicqp.generate import GenSpec, gen_cardinality, gen_grid_path, gen_quadratic
from conicqp.qp import (
    BASIC,
    MAX_UPDATES,
    ActiveSetEngine,
    WorkingBasis,
    _KktFactor,
    _lu,
    _lu_solve,
    scale_ray,
)

from oracles import enumerate_tiny_qp, projected_gradient_qp
from test_bad_inputs import bad_instance


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
        s = solve_lp(p)
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


class TestInputChecks:
    @pytest.mark.parametrize("change, message", [
        (dict(sigma=-1.0), "nonnegative"),
        (dict(quad=None), "quadratic form"),
        (dict(linear=np.zeros(3)), "wrong length"),
    ])
    def test_problem_rejected(self, change, message):
        data = dict(linear=np.zeros(2), quad=identity_form(2), sigma=1.0,
                    offset=0.0, poly=simplex_poly())
        with pytest.raises(ValueError, match=message):
            QpProblem(**(data | change))

    @pytest.mark.parametrize("start, message", [
        (dict(warm=WorkingBasis(np.zeros(3, dtype=np.int8))), "warm basis"),
        (dict(warm_x=np.zeros(3)), "warm point"),
    ])
    def test_warm_start_of_wrong_length_rejected(self, start, message):
        p = QpProblem(linear=np.zeros(2), quad=identity_form(2), sigma=1.0,
                      offset=0.0, poly=simplex_poly())
        with pytest.raises(ValueError, match=message):
            solve_qp(p, **start)


class TestAllPinned:
    """Every variable pinned (lower == upper): no live column spans a row."""

    @staticmethod
    def _problem(b):
        poly = Polyhedron(A=[[1.0, 1.0], [1.0, -1.0]], b=b, lower=[0.25, 0.75],
                          upper=[0.25, 0.75])
        return QpProblem(linear=np.array([1.0, -2.0]), quad=identity_form(2),
                         sigma=1.0, offset=0.0, poly=poly)

    def test_consistent_rows_optimal_at_the_pinned_point(self, monkeypatch):
        kept = []
        spy(monkeypatch, "_kept_rows", lambda eng, rows: kept.append(rows.size))
        p = self._problem([1.0, -0.5])
        s = solve_qp(p)
        assert s.status == QpStatus.OPTIMAL
        np.testing.assert_array_equal(s.x, [0.25, 0.75])
        assert kept == [0]  # both rows implied by the pins and dropped
        assert stationarity(p, s) == 0.0

    def test_inconsistent_rows_under_a_dual_start_are_infeasible(
            self, monkeypatch):
        warm = solve_qp(self._problem([1.0, -0.5]))
        starts = []
        spy(monkeypatch, "_phase1", lambda eng, _: starts.append(1))
        # x0 - x1 = 0 fails at the pinned point: the row analysis finds it
        s = solve_qp(self._problem([1.0, 0.0]), warm=warm.basis,
                     mode=StartMode.DUAL_START, warm_x=warm.x)
        assert s.status == QpStatus.INFEASIBLE
        assert starts == []


class TestLp:
    def test_enumeration_oracle_and_multipliers(self):
        rng = np.random.default_rng(55)
        worst_stat = worst_comp = 0.0
        for _ in range(200):
            p = random_problem(rng, n=int(rng.integers(1, 7)), sigma=0.0)
            s = solve_lp(p)
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

    def test_solve_qp_refuses_an_lp(self):
        lp = QpProblem(linear=np.array([1.0, 2.0]), quad=identity_form(2),
                       sigma=0.0, offset=0.0, poly=simplex_poly())
        with pytest.raises(ValueError, match="solve_lp"):
            solve_qp(lp)

    def test_highs_without_answer_raises(self, monkeypatch):
        monkeypatch.setattr(conicqp.qp, "linprog", lambda *a, **k: OptimizeResult(
            status=1, message="Iteration limit reached.", x=None, nit=1))
        lp = QpProblem(linear=np.array([1.0, 2.0]), quad=identity_form(2),
                       sigma=0.0, offset=0.0, poly=simplex_poly())
        with pytest.raises(LpFailureError):
            solve_lp(lp)
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
        res = solve_qp(p2, warm=base.basis, mode=StartMode.DUAL_START,
                       warm_x=base.x)
        assert res.iterations == 0
        np.testing.assert_allclose(res.x, base.x, atol=1e-10)

    def test_lp_vertex_tightening(self):
        p = QpProblem(linear=np.array([1.0, 2.0, 3.0]), quad=identity_form(3),
                      sigma=0.0, offset=0.0, poly=simplex_poly(3))
        base = solve_lp(p)
        np.testing.assert_allclose(base.x, [1, 0, 0], atol=1e-9)
        up = p.poly.upper.copy()
        up[0] = 0.0
        p2 = QpProblem(linear=p.linear, quad=p.quad, sigma=0.0, offset=0.0,
                       poly=Polyhedron(p.poly.A, p.poly.b, p.poly.lower, up))
        res = solve_lp(p2)  # LPs solve cold: HiGHS takes no warm basis
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
            res = solve_qp(p2, warm=base.basis, mode=StartMode.DUAL_START,
                           warm_x=base.x)
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


def with_sigma(p, sigma, poly=None, quad=None):
    return QpProblem(linear=p.linear, quad=quad or p.quad, sigma=sigma,
                     offset=p.offset, poly=poly or p.poly)


def card_problem(n=50, seed=3, sigma=2.0):
    rng = np.random.default_rng(seed)
    q = gen_quadratic(n, 6, 0.3, rng)
    poly = Polyhedron(A=np.ones((1, n)), b=[n / 5.0], lower=np.zeros(n),
                      upper=np.ones(n))
    return QpProblem(linear=-np.sqrt(q.diagonal()) * rng.random(n), quad=q,
                     sigma=sigma, offset=0.0, poly=poly)


class TestFactorHandover:
    def test_one_factor_serves_every_sigma(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng, n=10, m=3, sigma=1.0)
        sol = solve_qp(p)
        fac = sol.basis.factor
        assert fac is not None and fac.border  # bordered, not just a base LU
        free = np.flatnonzero(sol.basis.status == BASIC)
        rows, nf = fac.rows, free.size
        A_F = p.poly.A[np.ix_(rows, free)]
        Q_FF = p.quad.dense()[np.ix_(free, free)]
        d = rng.normal(size=p.poly.n)
        resid = rng.normal(size=p.poly.m)
        for sigma in (1e-3, 1.0, 1e3):
            eng = ActiveSetEngine(with_sigma(p, sigma))
            eng.status = sol.basis.status.copy()
            eng.factor = fac.copy()
            step, lam = eng._direction(d, resid)
            K = np.block([[sigma * Q_FF, A_F.T],
                          [A_F, np.zeros((rows.size, rows.size))]])
            ref = np.linalg.solve(K, np.concatenate([-d[free], resid[rows]]))
            got = np.concatenate([step[free], -lam[rows]])
            scale = np.max(np.abs(ref))
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9 * scale)
            assert not step[sol.basis.status != BASIC].any()

    def test_scale_ray_needs_a_factor(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng, n=10, m=3, sigma=1.0)
        assert scale_ray(p, solve_qp(p)) is not None
        lp = solve_lp(with_sigma(p, 0.0))  # HiGHS hands over no factor
        assert lp.basis.factor is None
        assert scale_ray(p, lp) is None

    def test_cd_chain_reuses_matching_factors(self, monkeypatch):
        calls = []
        real = conicqp.solvers.solve_qp

        def recording(problem, warm=None, *args, **kwargs):
            sol = real(problem, warm, *args, **kwargs)
            calls.append((warm, sol))
            return sol

        monkeypatch.setattr(conicqp.solvers, "solve_qp", recording)
        inst = gen_grid_path(GenSpec(family="gridpath", p=6, q=6, r=5,
                                     alpha=0.3, omega=2.0, seed=3))
        solve_cd(inst)
        assert len(calls) >= 3
        assert not calls[0][1].factor_reused  # the LP basis has no factor
        matching = 0
        for (_, prev), (warm, sol) in zip(calls, calls[1:]):
            same = (prev.basis.factor is not None and np.array_equal(
                warm.status == BASIC, prev.basis.status == BASIC))
            assert sol.factor_reused == same
            matching += same
        assert matching == len(calls) - 1

    def test_other_polyhedron_quad_or_pinned_mask_rebuilds(self):
        p = card_problem()
        base = solve_qp(p)
        assert base.basis.factor is not None
        dual = dict(warm=base.basis, mode=StartMode.DUAL_START, warm_x=base.x)
        assert solve_qp(p, **dual).factor_reused
        poly = p.poly
        other = Polyhedron(poly.A, poly.b, poly.lower, poly.upper)
        res = solve_qp(with_sigma(p, p.sigma, other), **dual)
        assert not res.factor_reused
        quad = QuadraticForm(p.quad.F, p.quad.sigma_factor, p.quad.D)
        res = solve_qp(with_sigma(p, p.sigma, quad=quad), **dual)
        assert not res.factor_reused
        # pin a variable at its lower bound on the same Polyhedron object
        j = int(np.flatnonzero(base.x < 1e-12)[0])
        poly.upper[j] = poly.lower[j]
        res = solve_qp(p, **dual)
        assert not res.factor_reused
        cold = solve_qp(with_sigma(p, p.sigma, Polyhedron(
            poly.A, poly.b, poly.lower, poly.upper)))
        assert res.objective == pytest.approx(
            cold.objective, abs=1e-9 * (1 + abs(cold.objective)))

    def test_shared_warm_basis_serves_each_solve_as_alone(self):
        p = card_problem()
        targets = (1.5, 1.2)
        shared = solve_qp(p)
        together = [solve_qp(with_sigma(p, sg), warm=shared.basis,
                             warm_x=shared.x) for sg in targets]
        assert all(s.factor_reused and s.iterations > 0 for s in together)
        for sg, got in zip(targets, together):
            fresh = solve_qp(p)
            alone = solve_qp(with_sigma(p, sg), warm=fresh.basis,
                             warm_x=fresh.x)
            np.testing.assert_array_equal(got.x, alone.x)
            assert got.pivot_log == alone.pivot_log


class TestBorderSchurComplement:
    @staticmethod
    def border_arrays(fac):
        return [a.copy() for a in (fac._bt, fac._yt, fac._c, fac._s)]

    @staticmethod
    def check(fac, rng):
        k = len(fac.border)
        fresh = fac.C - fac.B.T @ fac.Y
        np.testing.assert_allclose(fac.S, fresh, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(fresh).max(
                                       initial=0.0)))
        r0, rb = rng.normal(size=fac.N0), rng.normal(size=k)
        z, w = fac.solve(r0, rb)
        K = np.block([[fac.K0, fac.B], [fac.B.T, fac.C]])
        ref = np.linalg.solve(K, np.concatenate([r0, rb]))
        np.testing.assert_allclose(np.concatenate([z, w]), ref, rtol=1e-9,
                                   atol=1e-9 * np.abs(ref).max())

    def test_kept_up_to_date_through_fix_and_free(self):
        rng = np.random.default_rng(11)
        p = random_problem(rng, n=40, m=3, sigma=1.0)
        free = np.zeros(p.poly.n, dtype=bool)
        free[rng.choice(p.poly.n, 20, replace=False)] = True
        fac = _KktFactor(p.poly, p.quad, np.zeros(p.poly.n, dtype=bool),
                         np.arange(3), np.flatnonzero(free))
        start_cap, middle, peak = len(fac._s), 0, 0
        for _ in range(80):
            # keep at least 8 variables free so the KKT system stays regular
            j = int(rng.integers(p.poly.n))
            if free[j] and free.sum() <= 8:
                continue
            undone = ("free" if free[j] else "fix", j)  # entry it would undo
            if undone in fac.border:
                middle += fac.border.index(undone) < len(fac.border) - 1
            (fac.fix if free[j] else fac.free)(j)
            free[j] = not free[j]
            peak = max(peak, len(fac.border))
            self.check(fac, rng)
        assert middle and peak > 2 * start_cap

    def test_copy_owns_its_border_arrays(self):
        rng = np.random.default_rng(12)
        p = random_problem(rng, n=30, m=2, sigma=1.0)
        fac = _KktFactor(p.poly, p.quad, np.zeros(p.poly.n, dtype=bool),
                         np.arange(2), np.arange(20))
        for j in (3, 25, 7):
            (fac.fix if j < 20 else fac.free)(j)
        assert len(fac.border) < len(fac._s)  # a spare row is left
        before = self.border_arrays(fac)
        twin = fac.copy()
        twin.free(21)  # appends in the spare row of the arrays
        twin.free(3)  # removes from the middle of the border
        twin.fix(25)
        self.check(twin, rng)
        for got, want in zip(self.border_arrays(fac), before):
            np.testing.assert_array_equal(got, want)
        self.check(fac, rng)

    def test_growth_keeps_border_contents(self):
        # a base of order 4 makes B' and Y' as square as C and S
        rng = np.random.default_rng(13)
        p = random_problem(rng, n=16, m=1, sigma=1.0)
        fac = _KktFactor(p.poly, p.quad, np.zeros(p.poly.n, dtype=bool),
                         np.arange(1), np.arange(3))
        assert fac._bt.shape == fac._c.shape == (4, 4)
        fac.fix(1)
        for j in range(3, 13):
            cap, before = len(fac._c), self.border_arrays(fac)
            fac.free(j)
            if len(fac._c) == cap:
                continue
            k = len(fac.border) - 1  # the entry written after the growth
            assert fac._bt.shape == fac._yt.shape == (2 * cap, fac.N0)
            assert fac._c.shape == fac._s.shape == (2 * cap, 2 * cap)
            for got, old in zip(self.border_arrays(fac), before):
                np.testing.assert_array_equal(got[:cap, :old.shape[1]], old)
                assert not got[k + 1:].any() and not got[:, old.shape[1] + 1:].any()
        assert len(fac._c) == 16
        self.check(fac, rng)

    def test_rejected_s_is_singular_from_scratch(self, monkeypatch):
        # bad-input corpus instance 502: under solve_bisection the Schur LU's
        # pivot test rejects S after nearly every pivot (Bland mode, pivot
        # cap reached); each rejected S must fail the same test when formed
        # from scratch, so no rejection comes from drift of the kept S
        rejected = []
        real = _KktFactor.solve

        def solving(fac, *args, **kwargs):
            try:
                return real(fac, *args, **kwargs)
            except SingularKktError as err:
                if "Schur" in str(err):
                    rejected.append(fac.C - fac.B.T @ fac.Y)
                raise

        monkeypatch.setattr(_KktFactor, "solve", solving)
        inst = bad_instance(seed=260, rows="grid", pins=2, extra="dependent",
                            d_scale=1e-10, costs="tied", omega=1e-6)
        res = solve_bisection(inst)
        assert rejected
        for fresh in rejected:
            with pytest.raises(SingularKktError):
                _lu(fresh, 1e-13, "border Schur complement")
        if res.status in (SolveStatus.OPTIMAL, SolveStatus.TOLERANCE_REACHED):
            assert_certified(inst, res)


class TestLapackKernels:
    """``_lu`` and ``_lu_solve`` call LAPACK directly; they must return
    what SciPy's ``lu_factor`` and ``lu_solve`` return, bit for bit."""

    def test_exactly_singular_raises_without_warning(self):
        M = np.random.default_rng(14).normal(size=(6, 6))
        M[:, 2] = 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SingularKktError, match="test matrix is singular"):
                _lu(M, 1e-14, "test matrix")
        assert caught == []

    def test_bit_identical_to_scipy_wrappers(self):
        rng = np.random.default_rng(15)
        for n in (1, 2, 5, 8, 17, 40):
            big = rng.normal(size=(2 * n, 2 * n))
            # a contiguous matrix and a strided view, as _KktFactor.S is
            for M in (big[n:, n:].copy(), big[:n, :n]):
                before = M.copy()
                lu = _lu(M, 1e-14, "test matrix")
                ref = scipy.linalg.lu_factor(M, check_finite=False)
                np.testing.assert_array_equal(lu[0], ref[0])
                np.testing.assert_array_equal(lu[1], ref[1])
                rhs = rng.normal(size=n)
                got = _lu_solve(lu, rhs)
                assert got.shape == (n,)
                assert np.array_equal(
                    got, scipy.linalg.lu_solve(ref, rhs, check_finite=False))
                assert np.array_equal(M, before)  # factored in a copy


def assert_certified(inst, res):
    assert res.status in (SolveStatus.OPTIMAL, SolveStatus.TOLERANCE_REACHED)
    assert res.kkt is not None and res.kkt.residual_inf <= 1e-5
    assert inst.poly.contains(res.x, tol=1e-7)


def spy(monkeypatch, name, after):
    """Wrap ActiveSetEngine.<name>; ``after(engine, result)`` sees each
    call that returns."""
    real = getattr(ActiveSetEngine, name)

    def wrapper(self, *args):
        out = real(self, *args)
        after(self, out)
        return out

    monkeypatch.setattr(ActiveSetEngine, name, wrapper)


class TestRecoveryPaths:
    """Each recovery path the engine keeps runs on a named instance."""

    def test_bland_mode(self, monkeypatch):
        modes = []
        spy(monkeypatch, "_count_pivot", lambda eng, _: modes.append(eng._bland))
        inst = bad_instance(seed=1715, rows="dense", pins=0, extra="none",
                            d_scale=1e-10, costs="tied", omega=1e-6)
        res = solve_cd(inst)
        assert any(modes)
        assert_certified(inst, res)

    def test_growth_trigger(self, monkeypatch):
        triggers, refactors = [], []
        real = _KktFactor._append

        def appending(fac, *args):
            real(fac, *args)
            # below the update cap only the growth monitor asks to refactor
            triggers.append(fac.needs_refactor and fac.updates < MAX_UPDATES)

        monkeypatch.setattr(_KktFactor, "_append", appending)
        spy(monkeypatch, "_refactor", lambda eng, _: refactors.append(1))
        inst = bad_instance(seed=384, rows="card", pins=0, extra="duplicate",
                            d_scale=1e-10, costs="tied", omega=1e-6)
        res = solve_cd(inst)
        assert sum(triggers) > 0
        assert len(refactors) >= sum(triggers)
        assert_certified(inst, res)

    def test_primal_loop_refactor_resumes(self, monkeypatch):
        events = []
        real = ActiveSetEngine._primal_loop

        def looping(eng):
            try:
                out = real(eng)
            except SingularKktError:
                events.append("singular")
                raise
            events.append("done")
            return out

        monkeypatch.setattr(ActiveSetEngine, "_primal_loop", looping)
        inst = bad_instance(seed=1678, rows="dense", pins=1, extra="duplicate",
                            d_scale=0.0, costs="tied", omega=1e-6)
        res = solve_cd(inst)
        assert ("singular", "done") in zip(events, events[1:])
        assert_certified(inst, res)

    def test_dependent_rows_dropped_up_front(self, monkeypatch):
        inst = gen_cardinality(GenSpec(family="cardinality", n=30, r=5,
                                       alpha=0.3, omega=2.0, seed=3))
        poly = inst.poly
        twice = ConicInstance(
            c=inst.c, omega=inst.omega, q=inst.q,
            poly=Polyhedron(np.vstack([poly.A, poly.A]), np.r_[poly.b, poly.b],
                            poly.lower, poly.upper))
        once = solve_cd(inst)
        solves, starts, kept = [], [], []
        spy(monkeypatch, "solve", lambda eng, _: solves.append(1))
        spy(monkeypatch, "_phase1", lambda eng, _: starts.append(1))
        spy(monkeypatch, "_kept_rows", lambda eng, rows: kept.append(rows.size))
        res = solve_cd(twice)
        assert set(kept) == {1}
        assert len(starts) == len(solves) > 0  # no Phase-1 restart
        assert_certified(twice, res)
        assert res.objective == pytest.approx(once.objective, rel=1e-9)

    def test_capped_dual_start_falls_back_to_phase1(self, monkeypatch,
                                                     capped_dual_starts):
        inst = gen_cardinality(GenSpec(family="cardinality", n=30, r=5,
                                       alpha=0.3, omega=2.0, seed=3))
        base = solve_cd(inst)
        lower = inst.poly.lower.copy()
        lower[np.flatnonzero(base.x < 1e-9)[:2]] = 1.0
        tight = ConicInstance(c=inst.c, omega=inst.omega, q=inst.q,
                              poly=Polyhedron(inst.poly.A, inst.poly.b,
                                              lower, inst.poly.upper))
        calls = []
        spy(monkeypatch, "_dual_loop", lambda eng, ok: calls.append(ok))
        spy(monkeypatch, "_phase1", lambda eng, _: calls.append("phase1"))
        res = solve_cd(tight, warm=(base.basis, base.t))
        assert calls[:2] == [False, "phase1"]
        # the capped QP stops at its limit, typed, at Phase-1's feasible point
        assert res.status == SolveStatus.ITER_LIMIT
        assert tight.poly.contains(res.x, tol=1e-9)
