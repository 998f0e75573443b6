"""Coordinate-descent and bisection drivers on the perspective problem."""

import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import conicqp.qp
from conicqp import (
    BisectOptions,
    CdOptions,
    ConicInstance,
    InfeasibleError,
    LpFailureError,
    Polyhedron,
    QuadraticForm,
    SolveStatus,
    eval_objective,
    init_tmax_from_lp,
    solve_bisection,
    solve_cd,
)
from conicqp.generate import GenSpec, gen_cardinality, gen_grid_path
from conicqp.qp import BASIC

from oracles import golden_section_g


def identity_form(n):
    return QuadraticForm(F=np.zeros((n, 1)), sigma_factor=np.zeros((1, 1)),
                         D=np.ones(n))


def simplex_instance(c=(0.0, 0.0), omega=1.0):
    poly = Polyhedron(A=[[1.0, 1.0]], b=[1.0], lower=[0, 0], upper=[1, 1])
    return ConicInstance(c=np.array(c, dtype=float), omega=omega,
                         q=identity_form(2), poly=poly)


def seeded(seed, family="cardinality", n=30, grid=(4, 4), r=5, alpha=0.3,
           omega=2.0, discrete=False):
    if family == "cardinality":
        return gen_cardinality(GenSpec(family=family, n=n, r=r, alpha=alpha,
                                       omega=omega, seed=seed,
                                       discrete=discrete))
    return gen_grid_path(GenSpec(family=family, p=grid[0], q=grid[1], r=r,
                                 alpha=alpha, omega=omega, seed=seed,
                                 discrete=discrete))


class TestOptions:
    def test_delta_must_exceed_engine_tol(self):
        with pytest.raises(ValueError):
            CdOptions(delta=1e-10, qp_eps=1e-9)

    def test_nonpositive_t0_rejected(self):
        with pytest.raises(ValueError):
            CdOptions(t0=0.0)

    def test_bad_bracket_rejected(self):
        with pytest.raises(ValueError):
            BisectOptions(t_min0=2.0, t_max0=1.0)


class TestCoordinateDescent:
    def test_symmetric_simplex(self):
        res = solve_cd(simplex_instance(), CdOptions(t0=1.0))
        np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-8)
        assert res.objective == pytest.approx(math.sqrt(0.5), abs=1e-8)
        assert res.qp_count <= 3
        assert res.status == SolveStatus.OPTIMAL

    def test_one_dimensional(self):
        q = QuadraticForm(F=np.zeros((1, 1)), sigma_factor=np.zeros((1, 1)),
                          D=np.array([4.0]))
        poly = Polyhedron(A=[[1.0]], b=[1.0], lower=[0.0], upper=[2.0])
        inst = ConicInstance(c=np.array([-1.0]), omega=1.0, q=q, poly=poly)
        res = solve_cd(inst)
        assert res.objective == pytest.approx(1.0, abs=1e-9)
        assert res.t == pytest.approx(2.0, abs=1e-7)

    def test_seeded_matches_golden_section(self):
        inst = seeded(42, n=50, r=10, alpha=0.1, omega=2.0)
        res = solve_cd(inst)
        ref = golden_section_g(inst)
        assert abs(res.objective - ref) <= 1e-5 * abs(ref)

    def test_monotone_t_from_below_and_above(self):
        inst = seeded(7)
        tstar = solve_cd(inst).t
        lo = solve_cd(inst, CdOptions(t0=0.01 * tstar))
        hi = solve_cd(inst, CdOptions(t0=100 * tstar))
        ts_lo = [t for t, _ in lo.trace] + [lo.t]
        ts_hi = [t for t, _ in hi.trace] + [hi.t]
        assert all(b >= a - 1e-10 for a, b in zip(ts_lo, ts_lo[1:]))
        assert all(b <= a + 1e-10 for a, b in zip(ts_hi, ts_hi[1:]))

    def test_trace_objectives_non_increasing(self):
        inst = seeded(3, omega=3.0)
        res = solve_cd(inst)
        objs = [o for _, o in res.trace]
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    def test_t_zero_regime(self):
        # sum(x) = 0 with x >= 0 forces x = 0, so t* = 0
        poly = Polyhedron(A=[[1.0, 1.0]], b=[0.0], lower=[0, 0], upper=[1, 1])
        inst = ConicInstance(c=np.array([1.0, 1.0]), omega=1.0,
                             q=identity_form(2), poly=poly)
        res = solve_cd(inst)
        assert res.status == SolveStatus.T_ZERO
        assert res.t < 1e-8
        np.testing.assert_allclose(res.x, [0.0, 0.0], atol=1e-9)

    def test_infeasible_raises(self):
        poly = Polyhedron(A=[[1.0, 1.0]], b=[5.0], lower=[0, 0], upper=[1, 1])
        inst = ConicInstance(c=np.zeros(2), omega=1.0, q=identity_form(2),
                             poly=poly)
        with pytest.raises(InfeasibleError):
            solve_cd(inst)

    def test_objective_field_consistency(self):
        inst = seeded(12)
        res = solve_cd(inst)
        assert res.objective == pytest.approx(eval_objective(inst, res.x),
                                              abs=1e-9)
        assert abs(res.t - math.sqrt(inst.q.quad(res.x))) <= 1e-7 * (1 + res.t)


class TestInitTmax:
    def test_zero_cost_still_valid(self):
        inst = seeded(5)
        inst2 = ConicInstance(c=np.zeros(inst.n), omega=inst.omega, q=inst.q,
                              poly=inst.poly)
        t_max, basis = init_tmax_from_lp(inst2)
        assert t_max >= solve_cd(inst2).t - 1e-7

    def test_simplex_vertex(self):
        inst = simplex_instance(c=(1.0, 2.0))
        t_max, basis = init_tmax_from_lp(inst)
        assert t_max == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_grid_vertex_hands_off_full_rank_free_set(self):
        # every arc of an LP path sits at 0 or 1; the zero-reduced-cost arcs
        # must stay Basic so the first QP starts from a full-rank free set
        for grid in ((6, 6), (8, 8)):
            inst = seeded(4, family="gridpath", grid=grid)
            _, basis = init_tmax_from_lp(inst)
            free = basis.status == BASIC
            assert free.sum() >= inst.poly.m
            assert np.linalg.matrix_rank(inst.poly.A[:, free]) == inst.poly.m

    @pytest.mark.parametrize("status, error", [(1, LpFailureError),
                                               (4, LpFailureError),
                                               (2, InfeasibleError)])
    def test_lp_without_optimal_vertex_is_never_optimal(self, monkeypatch,
                                                        status, error):
        monkeypatch.setattr(conicqp.qp, "linprog", lambda *a, **k: OptimizeResult(
            status=status, message="forced", x=None, nit=7))
        inst = seeded(5)
        for driver in (solve_cd, solve_bisection):
            with pytest.raises(error):
                driver(inst)

    def test_bounds_optimal_t_on_seeded_instances(self):
        for seed in range(8):
            inst = seeded(seed, n=25)
            t_max, _ = init_tmax_from_lp(inst)
            assert solve_cd(inst).t <= t_max + 1e-7


class TestBisection:
    def test_symmetric_simplex_agrees_with_cd(self):
        res = solve_bisection(simplex_instance())
        cd = solve_cd(simplex_instance(), CdOptions(t0=1.0))
        assert res.objective == pytest.approx(cd.objective, abs=1e-8)

    def test_interval_contracts_by_half(self):
        inst = seeded(9, omega=3.0)
        res = solve_bisection(inst)
        iv = res.interval_trace
        assert len(iv) >= 2
        for (a0, b0), (a1, b1) in zip(iv, iv[1:]):
            assert b1 - a1 <= 0.5 * (b0 - a0) + 1e-12

    def test_seeded_matches_golden_section(self):
        inst = seeded(42, n=50, r=10, alpha=0.1, omega=2.0)
        res = solve_bisection(inst)
        ref = golden_section_g(inst)
        assert abs(res.objective - ref) <= 1e-5 * abs(ref)

    def test_final_t_within_lp_bracket(self):
        for seed in range(6):
            inst = seeded(seed, family="gridpath")
            t_max, _ = init_tmax_from_lp(inst)
            res = solve_bisection(inst)
            assert res.t <= t_max + 1e-7

    def test_incumbent_trace_non_increasing(self):
        inst = seeded(31, omega=3.0)
        res = solve_bisection(inst)
        objs = [o for _, o in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_certificate_quality(self):
        for seed in (0, 1, 2):
            inst = seeded(seed, family="gridpath", grid=(5, 5), omega=2.0)
            res = solve_bisection(inst)
            assert res.kkt is not None and res.kkt.residual_inf <= 1e-5


class TestWarmStartBehavior:
    def test_later_qps_cheaper_than_first(self):
        inst = seeded(17, n=120, r=10, alpha=0.2)
        res = solve_cd(inst)
        assert len(res.qp_pivots) >= 2
        assert sum(res.qp_pivots[1:]) <= res.qp_pivots[0]

    def test_dual_start_resume(self):
        # resuming at the optimal (basis, t) costs no pivots at all
        inst = seeded(23, n=40)
        first = solve_cd(inst)
        resumed = solve_cd(inst, warm=(first.basis, first.t))
        assert resumed.objective == pytest.approx(first.objective, abs=1e-9)
        assert resumed.pivot_count <= 2

    def test_results_hand_over_statuses_only(self):
        # a held result (an open B&B node's basis) must not keep a KKT factor
        inst = seeded(5, family="gridpath", grid=(5, 5))
        for res in (solve_cd(inst), solve_bisection(inst)):
            assert res.qp_count >= 2
            assert res.basis is not None and res.basis.factor is None
            resumed = solve_cd(inst, warm=(res.basis, res.t))
            assert resumed.basis.factor is None
