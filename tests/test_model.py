"""Core data model: objective/perspective evaluation, gradients, residuals."""

import math

import numpy as np
import pytest
import scipy.sparse

from conicqp import (
    ConicInstance,
    KktCertificate,
    Polyhedron,
    QuadraticForm,
    ZeroQuadraticError,
    dual_bound_estimate,
    eval_h,
    eval_objective,
    grad_f,
    kkt_residual,
    solve_cd,
    subproblem_objective,
)
from conicqp.generate import GenSpec, gen_cardinality, gen_quadratic


def identity_form(n):
    return QuadraticForm(F=np.zeros((n, 1)), sigma_factor=np.zeros((1, 1)),
                         D=np.ones(n))


def simplex_instance(c=(0.0, 0.0), omega=1.0):
    poly = Polyhedron(A=[[1.0, 1.0]], b=[1.0], lower=[0, 0], upper=[1, 1])
    return ConicInstance(c=np.array(c, dtype=float), omega=omega,
                         q=identity_form(2), poly=poly)


class TestNonFiniteDataRejected:
    @pytest.mark.parametrize("field", ["F", "sigma_factor", "D"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_quadratic_form(self, field, value):
        data = dict(F=np.ones((3, 2)), sigma_factor=np.eye(2), D=np.ones(3))
        data[field].flat[0] = value
        with pytest.raises(ValueError, match="finite"):
            QuadraticForm(**data)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_cost(self, value):
        with pytest.raises(ValueError, match="finite"):
            simplex_instance(c=(value, 0.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_omega(self, value):
        with pytest.raises(ValueError, match="finite"):
            simplex_instance(omega=value)


class TestPolyhedron:
    def test_sparse_matrix_becomes_dense(self):
        A = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        poly = Polyhedron(A=scipy.sparse.csr_matrix(A), b=[1.0, 2.0],
                          lower=np.zeros(3), upper=np.ones(3))
        assert type(poly.A) is np.ndarray
        np.testing.assert_array_equal(poly.A, A)
        assert (poly.m, poly.n) == (2, 3)


class TestEvalObjective:
    def test_symmetric_point(self):
        inst = simplex_instance()
        assert eval_objective(inst, np.array([0.5, 0.5])) == pytest.approx(
            math.sqrt(0.5), abs=1e-12)

    def test_one_dimensional(self):
        q = QuadraticForm(F=np.zeros((1, 1)), sigma_factor=np.zeros((1, 1)),
                          D=np.array([4.0]))
        poly = Polyhedron(A=[[1.0]], b=[1.0], lower=[0.0], upper=[2.0])
        inst = ConicInstance(c=np.array([-1.0]), omega=1.0, q=q, poly=poly)
        assert eval_objective(inst, np.array([1.0])) == pytest.approx(1.0)

    def test_zero_point(self):
        inst = simplex_instance()
        assert eval_objective(inst, np.zeros(2)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_objective(simplex_instance(), np.zeros(3))


class TestEvalH:
    def test_positive_t(self):
        assert eval_h(identity_form(2), np.array([1.0, 1.0]), 2.0) == pytest.approx(1.0)

    def test_zero_branch(self):
        assert eval_h(identity_form(2), np.zeros(2), 0.0) == 0.0

    def test_infinity_branch(self):
        assert eval_h(identity_form(2), np.array([1.0, 0.0]), 0.0) == math.inf

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            eval_h(identity_form(2), np.zeros(2), -1.0)


class TestSubproblemObjective:
    def test_unit_scale(self):
        qp = subproblem_objective(simplex_instance(omega=1.0), 1.0)
        assert qp.sigma == pytest.approx(1.0)
        assert qp.offset == pytest.approx(0.5)

    def test_scaled(self):
        qp = subproblem_objective(simplex_instance(omega=2.0), 4.0)
        assert qp.sigma == pytest.approx(0.5)
        assert qp.offset == pytest.approx(4.0)

    def test_lp_sentinel(self):
        qp = subproblem_objective(simplex_instance(), math.inf)
        assert qp.sigma == 0.0
        assert qp.offset == 0.0

    def test_nonpositive_t_rejected(self):
        with pytest.raises(ValueError):
            subproblem_objective(simplex_instance(), 0.0)


class TestGradF:
    def test_unit_vector(self):
        inst = simplex_instance()
        np.testing.assert_allclose(grad_f(inst, np.array([3.0, 4.0])),
                                   [0.6, 0.8], atol=1e-12)

    def test_scaled(self):
        q = QuadraticForm(F=np.zeros((1, 1)), sigma_factor=np.zeros((1, 1)),
                          D=np.array([4.0]))
        poly = Polyhedron(A=np.zeros((0, 1)), b=[], lower=[0.0], upper=[2.0])
        inst = ConicInstance(c=np.array([0.0]), omega=2.0, q=q, poly=poly)
        np.testing.assert_allclose(grad_f(inst, np.array([1.0])), [4.0])

    def test_degenerate_raises(self):
        with pytest.raises(ZeroQuadraticError):
            grad_f(simplex_instance(), np.zeros(2))


class TestKktResidual:
    def test_analytic_optimum(self):
        inst = simplex_instance()
        cert = KktCertificate(lam=np.array([1.0 / math.sqrt(2.0)]),
                              mu_lower=np.zeros(2), mu_upper=np.zeros(2))
        assert kkt_residual(inst, np.array([0.5, 0.5]), cert) <= 1e-9
        assert cert.comp_viol <= 1e-12

    def test_perturbed_point(self):
        inst = simplex_instance()
        cert = KktCertificate(lam=np.array([1.0 / math.sqrt(2.0)]),
                              mu_lower=np.zeros(2), mu_upper=np.zeros(2))
        res = kkt_residual(inst, np.array([0.501, 0.499]), cert)
        assert res > 1e-6

    def test_fully_constrained(self):
        q = QuadraticForm(F=np.zeros((1, 1)), sigma_factor=np.zeros((1, 1)),
                          D=np.array([4.0]))
        poly = Polyhedron(A=[[1.0]], b=[1.0], lower=[0.0], upper=[2.0])
        inst = ConicInstance(c=np.array([-1.0]), omega=1.0, q=q, poly=poly)
        # gradient of the risk term at x=1 is 2; lam = c + grad = 1 absorbs it
        cert = KktCertificate(lam=np.array([1.0]), mu_lower=np.zeros(1),
                              mu_upper=np.zeros(1))
        assert kkt_residual(inst, np.array([1.0]), cert) <= 1e-12

    def test_infeasible_rejected(self):
        inst = simplex_instance()
        cert = KktCertificate(lam=np.zeros(1), mu_lower=np.zeros(2),
                              mu_upper=np.zeros(2))
        with pytest.raises(ValueError):
            kkt_residual(inst, np.array([0.9, 0.9]), cert)


class TestDualBoundEstimate:
    def test_no_change_gives_eps(self):
        inst = simplex_instance()
        x = np.array([0.5, 0.5])
        assert dual_bound_estimate(inst, x, 1.0, 1.0, 1e-9) == pytest.approx(1e-9)

    def test_arithmetic(self):
        # |dt|/t * ||grad||_inf = 0.1 * 2 = 0.2 with qp_eps = 0
        q = QuadraticForm(F=np.zeros((1, 1)), sigma_factor=np.zeros((1, 1)),
                          D=np.array([4.0]))
        poly = Polyhedron(A=np.zeros((0, 1)), b=[], lower=[0.0], upper=[2.0])
        inst = ConicInstance(c=np.array([0.0]), omega=1.0, q=q, poly=poly)
        # grad_f at x=1 is 2; t moves from 1.0 to 1.1
        est = dual_bound_estimate(inst, np.array([1.0]), 1.0, 1.1, 0.0)
        assert est == pytest.approx(0.2, rel=1e-12)

    def test_converged_run_below_delta(self):
        inst = gen_cardinality(GenSpec(family="cardinality", n=10, r=3,
                                       alpha=0.3, omega=1.5, seed=11))
        res = solve_cd(inst)
        t_prev, _ = res.trace[-1]
        est = dual_bound_estimate(inst, res.x, t_prev, res.t, 1e-9)
        assert est <= 1e-5


class TestInvariants:
    def test_psd_sampling(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            q = gen_quadratic(30, 6, 0.4, np.random.default_rng(seed))
            xs = rng.normal(size=(1000, 30))
            vals = [q.quad(x) for x in xs]
            assert min(vals) >= -1e-10

    def test_factored_dense_agreement(self):
        rng = np.random.default_rng(7)
        q = gen_quadratic(40, 8, 0.5, rng)
        pick = np.random.default_rng(8)
        rows = pick.choice(40, 12, replace=False)
        cols = np.append(pick.choice(40, 8, replace=False), rows[3])
        blk = q.block(rows, cols)  # factored form, before the dense cache
        dense = q.dense()
        np.testing.assert_allclose(blk, dense[np.ix_(rows, cols)],
                                   rtol=0, atol=1e-12 * np.abs(dense).max())
        np.testing.assert_array_equal(q.block(rows, cols),
                                      dense[np.ix_(rows, cols)])
        for _ in range(50):
            x = rng.normal(size=40)
            lhs = q.F @ (q.sigma_factor @ (q.sigma_factor.T @ (q.F.T @ x))) + q.D * x
            np.testing.assert_allclose(lhs, dense @ x,
                                       atol=1e-10 * (1 + np.abs(x).max()))
            np.testing.assert_allclose(q.matvec(x), dense @ x,
                                       atol=1e-10 * (1 + np.abs(x).max()))

    def test_perspective_sandwich(self):
        rng = np.random.default_rng(3)
        inst = gen_cardinality(GenSpec(family="cardinality", n=25, r=5,
                                       alpha=0.5, omega=2.0, seed=5))
        for _ in range(25):
            x = rng.uniform(0, 1, 25)
            t = math.sqrt(inst.q.quad(x))
            if t == 0:
                continue
            val = (inst.c @ x + 0.5 * inst.omega * eval_h(inst.q, x, t)
                   + 0.5 * inst.omega * t)
            ref = eval_objective(inst, x)
            assert val == pytest.approx(ref, rel=1e-12)

    def test_value_function_convexity(self):
        from conicqp import solve_qp

        inst = gen_cardinality(GenSpec(family="cardinality", n=20, r=4,
                                       alpha=0.3, omega=2.0, seed=9))
        ts = np.linspace(0.5, 6.0, 12)
        g = [solve_qp(subproblem_objective(inst, t)).objective for t in ts]
        for i in range(1, len(ts) - 1):
            w = (ts[i] - ts[i - 1]) / (ts[i + 1] - ts[i - 1])
            interp = (1 - w) * g[i - 1] + w * g[i + 1]
            assert g[i] <= interp + 1e-8

    def test_dual_bound_dominates_residual(self):
        # the estimate bounds the measured stationarity violation of the
        # conic problem at the subproblem optimum, plus engine slack
        from conicqp import solve_qp

        for seed in (1, 2, 3):
            inst = gen_cardinality(GenSpec(family="cardinality", n=15, r=4,
                                           alpha=0.4, omega=1.5, seed=seed))
            t_prev = 2.0
            sol = solve_qp(subproblem_objective(inst, t_prev))
            x = sol.x
            t_next = math.sqrt(inst.q.quad(x))
            est = dual_bound_estimate(inst, x, t_prev, t_next, 1e-9)
            cert = KktCertificate(lam=sol.lam, mu_lower=sol.mu_lower,
                                  mu_upper=sol.mu_upper)
            res = kkt_residual(inst, x, cert)
            assert res <= est + 1e-12
