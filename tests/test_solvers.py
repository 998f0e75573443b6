"""Coordinate-descent and bisection drivers on the perspective problem."""

import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import conicqp.qp
import conicqp.solvers
from conicqp import (
    BisectOptions,
    CdOptions,
    ConicInstance,
    InfeasibleError,
    LpFailureError,
    Polyhedron,
    QuadraticForm,
    SingularKktError,
    SolveStatus,
    eval_objective,
    solve_bisection,
    solve_cd,
    solve_lp,
)
from conicqp.generate import GenSpec, gen_cardinality, gen_grid_path
from conicqp.model import QZERO_TOL
from conicqp.qp import BASIC, StartMode, WorkingBasis

from oracles import golden_section_g
from test_bad_inputs import bad_instance


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


def singular_instance():
    """Rank-one Q (D = 0) and tied costs: the LP leaves all four variables
    free, and Q_FF is singular on the null space of sum(x) = 2."""
    q = QuadraticForm(F=np.array([[1.0], [2.0], [3.0], [4.0]]),
                      sigma_factor=np.ones((1, 1)), D=np.zeros(4))
    poly = Polyhedron(A=np.ones((1, 4)), b=[2.0], lower=np.zeros(4),
                      upper=np.ones(4))
    return ConicInstance(c=-np.ones(4), omega=1.0, q=q, poly=poly)


class TestOptions:
    def test_delta_must_exceed_engine_tol(self):
        with pytest.raises(ValueError):
            CdOptions(delta=1e-10, qp_eps=1e-9)

    def test_nonpositive_t0_rejected(self):
        with pytest.raises(ValueError):
            CdOptions(t0=0.0)

    def test_infinite_t0_rejected(self):
        # t = inf is the LP relaxation, which the t0=None start solves
        with pytest.raises(ValueError, match="finite"):
            CdOptions(t0=math.inf)

    def test_bisect_delta_must_exceed_engine_tol(self):
        # qp_eps = min(1e-9, 0 / 10) = 0, and the estimate's floor must stay
        # strictly below delta for a stop to be reachable
        with pytest.raises(ValueError):
            BisectOptions(delta=0.0)

    @pytest.mark.parametrize("make", [
        lambda: CdOptions(qp_eps=-1.0),
        lambda: CdOptions(qp_eps=math.nan),
        lambda: CdOptions(delta=math.inf),
        lambda: CdOptions(delta=math.nan),
        lambda: BisectOptions(delta=math.inf),
        lambda: BisectOptions(delta=math.nan),
    ], ids=["cd-negative-eps", "cd-nan-eps", "cd-inf-delta", "cd-nan-delta",
            "bisect-inf-delta", "bisect-nan-delta"])
    def test_tolerances_outside_the_rule_rejected(self, make):
        # a negative floor certified a wrong point: on gen_cardinality with
        # n = 200, r = 20, alpha = 0.1, omega = 2 and seed 7, qp_eps = -1
        # stopped cd as Optimal after 3 QPs at a KKT residual of 0.65,
        # against 8 QPs and 3e-15 by default
        with pytest.raises(ValueError, match="0 <= qp_eps < delta < inf"):
            make()

    def test_qp_eps_follows_from_delta(self):
        assert CdOptions().qp_eps == BisectOptions().qp_eps == 1e-9
        assert CdOptions(delta=1e-10).qp_eps == pytest.approx(1e-11, rel=1e-15)
        assert BisectOptions(delta=1e-10).qp_eps == pytest.approx(1e-11,
                                                                  rel=1e-15)
        assert CdOptions(delta=1e-10, qp_eps=1e-12).qp_eps == 1e-12

    def test_bisect_qp_eps_cannot_be_set(self):
        with pytest.raises(TypeError):
            BisectOptions(delta=1e-5, qp_eps=1e-9)


class TestCoordinateDescent:
    @pytest.mark.parametrize("t", [0.0, math.inf])
    def test_warm_t_must_be_positive_and_finite(self, t):
        first = solve_cd(simplex_instance())
        with pytest.raises(ValueError, match="warm t"):
            solve_cd(simplex_instance(), warm=(first.basis, t))

    def test_warm_basis_with_foreign_status_rejected(self):
        # unchecked, status 7 ended Optimal at objective -159.600 with a KKT
        # residual of 2.65, against -160.772 from the true basis
        inst = gen_cardinality(GenSpec(family="cardinality", n=200, r=20,
                                       alpha=0.1, omega=2.0, seed=7))
        opts = CdOptions(delta=1e-10, qp_eps=1e-12)
        ref = solve_cd(inst, opts)
        status = ref.basis.status.copy()
        status[:5] = 7
        with pytest.raises(ValueError, match="warm basis holds a status"):
            solve_cd(inst, opts, warm=(WorkingBasis(status), ref.t))

    def test_t0_and_warm_together_rejected(self):
        # warm's t starts the run; t0 was dropped without a word, and the
        # first QP ran at warm's t = 2.1686, not at 123
        inst = gen_cardinality(GenSpec(family="cardinality", n=50, r=5,
                                       alpha=0.5, omega=2.0, seed=3))
        r0 = solve_cd(inst)
        with pytest.raises(ValueError, match="t0 or warm"):
            solve_cd(inst, CdOptions(t0=123.0), warm=(r0.basis, r0.t))

    def test_outer_loop_cap_ends_iter_limit(self, monkeypatch):
        # the default run takes 4 QPs
        monkeypatch.setattr(conicqp.solvers, "CD_MAX_OUTER", 1)
        res = solve_cd(seeded(1))
        assert res.status == SolveStatus.ITER_LIMIT
        assert res.stop_reason == "iter_limit" and res.qp_count == 1

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
        lp = solve_lp(inst2.c, inst2.poly)
        t_max = math.sqrt(inst2.q.quad(lp.x))
        assert t_max >= solve_cd(inst2).t - 1e-7

    def test_simplex_vertex(self):
        inst = simplex_instance(c=(1.0, 2.0))
        lp = solve_lp(inst.c, inst.poly)
        t_max = math.sqrt(inst.q.quad(lp.x))
        assert t_max == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_grid_vertex_hands_off_full_rank_free_set(self):
        # every arc of an LP path sits at 0 or 1; the zero-reduced-cost arcs
        # must stay Basic so the first QP starts from a full-rank free set
        for grid in ((6, 6), (8, 8)):
            inst = seeded(4, family="gridpath", grid=grid)
            lp = solve_lp(inst.c, inst.poly)
            free = lp.basis.status == BASIC
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
            lp = solve_lp(inst.c, inst.poly)
            t_max = math.sqrt(inst.q.quad(lp.x))
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
            lp = solve_lp(inst.c, inst.poly)
            t_max = math.sqrt(inst.q.quad(lp.x))
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

    def test_midpoint_in_the_t_zero_regime(self):
        # omega = 1e6 pushes the first midpoint's QP to x'Qx = 6e-14
        q = QuadraticForm(F=np.zeros((2, 1)), sigma_factor=np.ones((1, 1)),
                          D=[0.0, 1.0])
        poly = Polyhedron(A=[[1.0, 1.0]], b=[1.0], lower=[0, 0], upper=[1, 1])
        inst = ConicInstance(c=np.array([-1.0, -1.5]), omega=1e6, q=q,
                             poly=poly)
        res = solve_bisection(inst)
        assert res.status == SolveStatus.T_ZERO
        assert res.stop_reason == "t_zero" and res.qp_count == 1
        assert res.kkt is None

    def test_no_gap_claimed_without_a_lower_bound(self):
        # the run stops while t_min is still 0, so no lower bound exists;
        # with the bound at -inf the gap test read inf <= 1e-6 * inf
        inst = bad_instance(seed=5050, rows="card", pins=0, extra="none",
                            d_scale=1e-10, costs="tied", omega=1e-6)
        res = solve_bisection(inst)
        assert res.interval_trace[-1][0] == 0.0
        assert res.status == SolveStatus.TOLERANCE_REACHED
        assert res.stop_reason == "dual_bound"
        assert res.kkt is not None


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


class TestTypedOutcomes:
    """A stop without a certificate is never reported as solved."""

    @pytest.mark.parametrize("solver", [solve_cd, solve_bisection])
    def test_singular_kkt_raises_typed_error(self, solver):
        with pytest.raises(SingularKktError):
            solver(singular_instance())

    def test_point_off_the_equalities_is_uncertified(self, off_the_equalities):
        # the stand-in moves every QP's point 1e-4 off sum(x) = b, so the
        # run stops solved at a point that kkt_residual refuses
        inst = seeded(31, n=30)
        res = solve_bisection(inst)
        assert not inst.poly.contains(res.x, tol=1e-7)
        assert res.status == SolveStatus.UNCERTIFIED
        assert res.kkt is None

    def test_one_t_zero_threshold(self):
        # x'Qx falls below QZERO_TOL, where grad f is undefined, while
        # t = sqrt(x'Qx) is still far above 1e-10
        inst = bad_instance(seed=6391, rows="dense", pins=0, extra="duplicate",
                            d_scale=1e-10, costs="random", omega=1e6)
        res = solve_cd(inst)
        assert res.status == SolveStatus.T_ZERO
        assert 1e-20 < inst.q.quad(res.x) <= QZERO_TOL
        assert res.kkt is None


def infeasible_instance():
    """x1 + x2 = 5 over [0, 1]^2: the LP relaxation, or a cold first QP's
    Phase-1, proves it empty."""
    poly = Polyhedron(A=[[1.0, 1.0]], b=[5.0], lower=[0, 0], upper=[1, 1])
    return ConicInstance(c=np.zeros(2), omega=1.0, q=identity_form(2),
                         poly=poly)


class TestQpChain:
    """Both drivers report their QPs the same way, on a result or an error."""

    @pytest.mark.parametrize("run, qp_count", [
        (lambda inst: solve_cd(inst, CdOptions(t0=1.0)), 1),
        # the LP relaxation fails first: the class defaults, no engine QP
        (solve_bisection, 0),
    ], ids=["cd", "bisect"])
    def test_infeasible_error_carries_counts(self, run, qp_count):
        with pytest.raises(InfeasibleError) as info:
            run(infeasible_instance())
        assert info.value.qp_count == qp_count
        assert info.value.pivot_count == 0
        assert info.value.first_qp_used_phase1 is True
        assert info.value.jumps_tried == info.value.jumps_taken == 0

    @pytest.mark.parametrize("error", [SingularKktError, LpFailureError])
    @pytest.mark.parametrize("fails_at", [1, 3])
    def test_failed_qp_error_carries_counts(self, error, fails_at,
                                            monkeypatch):
        real = conicqp.solvers.solve_qp
        calls = []

        def failing(*args, **kwargs):
            if len(calls) + 1 == fails_at:
                raise error("stand-in failure")
            calls.append(real(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(conicqp.solvers, "solve_qp", failing)
        with pytest.raises(error) as info:
            solve_cd(seeded(31, family="gridpath", grid=(5, 5)))
        # the failed QP counts, without pivots; a failed first QP counts as
        # a fallback from its start
        assert info.value.qp_count == fails_at
        assert info.value.pivot_count == sum(sol.iterations for sol in calls)
        assert info.value.first_qp_used_phase1 is (
            calls[0].used_phase1 if calls else True)

    @pytest.mark.parametrize("entry", ["cd-lp", "cd-t0", "cd-warm",
                                       "bisect-lp"])
    def test_counts_match_engine_calls(self, entry, monkeypatch):
        inst = seeded(31, family="gridpath", grid=(5, 5))
        resume = None
        if entry == "cd-warm":
            first = solve_cd(inst)
            resume = (first.basis, 1.5 * first.t)
        real = conicqp.solvers.solve_qp
        calls = []

        def spy(problem, warm=None, mode=StartMode.PRIMAL_START, **kwargs):
            sol = real(problem, warm=warm, mode=mode, **kwargs)
            calls.append((warm, mode, sol))
            return sol

        monkeypatch.setattr(conicqp.solvers, "solve_qp", spy)
        res = {
            "cd-lp": lambda: solve_cd(inst),
            "cd-t0": lambda: solve_cd(inst, CdOptions(t0=1.0)),
            "cd-warm": lambda: solve_cd(inst, warm=resume),
            "bisect-lp": lambda: solve_bisection(inst),
        }[entry]()
        # the LP relaxation goes to solve_lp directly, never through solve_qp
        assert len(calls) == res.qp_count >= 2
        pivots = [sol.iterations for _, _, sol in calls]
        assert pivots == res.qp_pivots
        assert sum(pivots) == res.pivot_count
        assert calls[0][2].used_phase1 == res.first_qp_used_phase1
        first_warm, first_mode = calls[0][0], calls[0][1]
        if entry == "cd-t0":
            assert first_warm is None and first_mode == StartMode.PRIMAL_START
        elif entry == "cd-warm":
            assert first_warm is resume[0] and first_mode == StartMode.DUAL_START
        else:
            assert first_warm is not None and first_mode == StartMode.PRIMAL_START
        for prev, (basis, mode, _) in zip(calls, calls[1:]):
            assert basis is prev[2].basis and mode == StartMode.PRIMAL_START


class TestFixedPointJump:
    """solve_cd jumps t to its working set's fixed point, once per set."""

    def test_taken_jump_lands_on_the_fixed_point(self, monkeypatch):
        inst = seeded(31)
        real_qp, real_jump = conicqp.solvers.solve_qp, conicqp.solvers._fixed_point
        events = []

        def qp_spy(problem, *args, **kwargs):
            sol = real_qp(problem, *args, **kwargs)
            events.append(("qp", problem.sigma, sol.iterations))
            return sol

        def jump_spy(inst, sol, *args):
            t_star = real_jump(inst, sol, *args)
            events.append(("jump", t_star, sol.basis.status.tobytes()))
            return t_star

        monkeypatch.setattr(conicqp.solvers, "solve_qp", qp_spy)
        monkeypatch.setattr(conicqp.solvers, "_fixed_point", jump_spy)
        res = solve_cd(inst)
        assert res.status == SolveStatus.OPTIMAL
        jumps = [ev for ev in events if ev[0] == "jump"]
        assert res.jumps_tried == len(jumps)
        assert len({key for _, _, key in jumps}) == len(jumps)  # one per set
        taken = [t for _, t, _ in jumps if t is not None]
        assert res.jumps_taken == len(taken) >= 1
        for ev, nxt in zip(events, events[1:]):
            if ev[0] == "jump" and ev[1] is not None:
                # the QP at t* is already solved by x(t*): no pivot
                assert nxt[0] == "qp" and nxt[2] == 0
                assert nxt[1] == pytest.approx(inst.omega / ev[1], rel=1e-15)
        # the run ends with the QP at the last t*, and t* = sqrt(x'Qx) there
        assert res.trace[-1][0] == taken[-1]
        assert res.t == pytest.approx(taken[-1], rel=1e-12)
        assert res.t == math.sqrt(inst.q.quad(res.x))

    @pytest.mark.parametrize("t0", [None, 1e-2, 1e2], ids=["lp", "low", "high"])
    @pytest.mark.parametrize("family", ["cardinality", "gridpath"])
    def test_qp_after_a_jump_never_pivots(self, family, t0, monkeypatch):
        # these runs try jumps whose root leaves the bounds of a free
        # variable, or flips a fixed variable's reduced cost
        real_qp, real_jump = conicqp.solvers.solve_qp, conicqp.solvers._fixed_point
        pivots_after_jump, jumped = [], [False]

        def qp_spy(*args, **kwargs):
            sol = real_qp(*args, **kwargs)
            if jumped[0]:
                pivots_after_jump.append(sol.iterations)
                jumped[0] = False
            return sol

        def jump_spy(*args):
            t_star = real_jump(*args)
            jumped[0] = t_star is not None
            return t_star

        monkeypatch.setattr(conicqp.solvers, "solve_qp", qp_spy)
        monkeypatch.setattr(conicqp.solvers, "_fixed_point", jump_spy)
        for seed in range(4):
            res = solve_cd(seeded(seed, family=family, grid=(5, 5)),
                           CdOptions(t0=t0))
            assert res.status == SolveStatus.OPTIMAL
        assert len(pivots_after_jump) >= 4
        assert not any(pivots_after_jump)

    @pytest.mark.parametrize("family", ["cardinality", "gridpath"])
    def test_same_optimum_and_pivots_as_plain_descent(self, family,
                                                      monkeypatch):
        inst = seeded(32, family=family, grid=(5, 5))
        jumped = solve_cd(inst)
        monkeypatch.setattr(conicqp.solvers, "_fixed_point",
                            lambda *args: None)
        plain = solve_cd(inst)
        assert jumped.jumps_taken >= 1 and plain.jumps_taken == 0
        assert jumped.qp_count < plain.qp_count
        assert jumped.pivot_count == plain.pivot_count
        assert jumped.objective == pytest.approx(plain.objective, rel=1e-10)
