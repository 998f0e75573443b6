"""Branch-and-bound driver and the enumeration oracle."""

import dataclasses
import itertools
import logging
import math

import numpy as np
import pytest

import conicqp.bnb
from conicqp import (
    BnbOptions,
    BnbStatus,
    ConicInstance,
    InfeasibleError,
    Polyhedron,
    QuadraticForm,
    SolveStatus,
    branch_select,
    enumeration_oracle,
    eval_objective,
    solve_bnb,
)
from conicqp.generate import GenSpec, gen_cardinality, gen_grid_path, grid_arcs


def card_instance(n, b, c, q, omega=1.0):
    poly = Polyhedron(A=np.ones((1, n)), b=[float(b)], lower=np.zeros(n),
                      upper=np.ones(n))
    return ConicInstance(c=c, omega=omega, q=q, poly=poly,
                         integer_vars=tuple(range(n)))


def seeded_card(seed, n=15, r=5, alpha=0.5, omega=2.0):
    return gen_cardinality(GenSpec(family="cardinality", n=n, r=r, alpha=alpha,
                                   omega=omega, seed=seed, discrete=True))


def seeded_grid(seed, p=4, q=4, r=5, alpha=0.5, omega=2.0):
    return gen_grid_path(GenSpec(family="gridpath", p=p, q=q, r=r, alpha=alpha,
                                 omega=omega, seed=seed, discrete=True))


class TestBranchSelect:
    def test_max_infeasibility(self):
        assert branch_select(np.array([0.5, 0.3]), (0, 1)) == (0, 0, 1)

    def test_tie_goes_to_lowest_index(self):
        assert branch_select(np.array([0.2, 0.8]), (0, 1)) == (0, 0, 1)

    def test_integral_entries_skipped(self):
        assert branch_select(np.array([1.0, 0.49999]), (0, 1)) == (1, 0, 1)

    def test_integral_point_rejected(self):
        with pytest.raises(ValueError):
            branch_select(np.array([1.0, 0.0]), (0, 1))


class TestEnumerationOracle:
    def test_unit_cardinality_formula(self):
        rng = np.random.default_rng(1)
        q = QuadraticForm(F=rng.uniform(-1, 1, (4, 2)),
                          sigma_factor=rng.uniform(-1, 1, (2, 2)),
                          D=rng.uniform(0.1, 1.0, 4))
        c = rng.uniform(-2, 0, 4)
        inst = card_instance(4, 1, c, q, omega=1.5)
        x, obj = enumeration_oracle(inst)
        expected = min(c[i] + 1.5 * math.sqrt(q.dense()[i, i]) for i in range(4))
        assert obj == pytest.approx(expected, rel=1e-12)

    def test_choose_two_of_ten(self):
        inst = seeded_card(3, n=10, r=3)
        inst2 = ConicInstance(c=inst.c, omega=inst.omega, q=inst.q,
                              poly=Polyhedron(np.ones((1, 10)), [2.0],
                                              np.zeros(10), np.ones(10)),
                              integer_vars=tuple(range(10)))
        x, obj = enumeration_oracle(inst2)
        best = min(
            eval_objective(inst2, np.array([1.0 if i in s else 0.0
                                            for i in range(10)]))
            for s in itertools.combinations(range(10), 2)
        )
        assert obj == pytest.approx(best, rel=1e-12)
        assert abs(x.sum() - 2.0) < 1e-9

    def test_grid_3x3_has_six_paths(self):
        inst = seeded_grid(5, p=3, q=3)
        x, obj = enumeration_oracle(inst)
        # independent recount of monotone paths via the arc structure
        arcs = grid_arcs(3, 3)
        paths = []

        def walk(node, chosen):
            if node == 8:
                paths.append(tuple(chosen))
                return
            i, j = divmod(node, 3)
            if j + 1 < 3:
                walk(node + 1, chosen + [arcs.index((node, node + 1))])
            if i + 1 < 3:
                walk(node + 3, chosen + [arcs.index((node, node + 3))])

        walk(0, [])
        assert len(paths) == 6
        best = math.inf
        for path in paths:
            v = np.zeros(inst.n)
            v[list(path)] = 1.0
            best = min(best, eval_objective(inst, v))
        assert obj == pytest.approx(best, rel=1e-12)

    @staticmethod
    def _two_row_instance(b):
        """Binary, two equality rows: neither a cardinality nor a grid
        polytope, so the oracle enumerates all 2^n points."""
        rng = np.random.default_rng(8)
        q = QuadraticForm(F=rng.uniform(-1, 1, (8, 3)),
                          sigma_factor=rng.uniform(-1, 1, (3, 3)),
                          D=rng.uniform(0.1, 1.0, 8))
        A = np.array([[1.0] * 4 + [0.0] * 4, [0.0] * 4 + [1.0] * 4])
        return ConicInstance(c=rng.uniform(-2, 0, 8), omega=1.5, q=q,
                             poly=Polyhedron(A, b, np.zeros(8), np.ones(8)),
                             integer_vars=tuple(range(8)))

    def test_generic_binary_fallback_matches_bnb(self):
        inst = self._two_row_instance([2.0, 1.0])
        x, obj = enumeration_oracle(inst)
        np.testing.assert_array_equal([x[:4].sum(), x[4:].sum()], [2.0, 1.0])
        assert obj == pytest.approx(eval_objective(inst, x), rel=1e-12)
        res = solve_bnb(inst)
        assert res.status in (BnbStatus.OPTIMAL, BnbStatus.GAP_REACHED)
        assert abs(res.incumbent_obj - obj) <= 1e-4 * max(1.0, abs(obj))

    def test_generic_binary_fallback_without_binary_point(self):
        # x0..x3 sum to 1.5: feasible for the relaxation, never for 0/1 values
        with pytest.raises(InfeasibleError):
            enumeration_oracle(self._two_row_instance([1.5, 1.0]))

    def test_non_binary_rejected(self):
        inst = gen_cardinality(GenSpec(family="cardinality", n=10, r=3,
                                       alpha=0.3, omega=1.0, seed=0))
        with pytest.raises(ValueError):
            enumeration_oracle(inst)


class TestSolveBnb:
    def test_unit_cardinality(self):
        rng = np.random.default_rng(2)
        q = QuadraticForm(F=rng.uniform(-1, 1, (4, 2)),
                          sigma_factor=rng.uniform(-1, 1, (2, 2)),
                          D=rng.uniform(0.1, 1.0, 4))
        c = rng.uniform(-2, 0, 4)
        inst = card_instance(4, 1, c, q)
        res = solve_bnb(inst)
        expected = min(c[i] + math.sqrt(q.dense()[i, i]) for i in range(4))
        assert res.incumbent_obj == pytest.approx(expected, rel=1e-6)
        assert res.incumbent_obj >= res.best_bound - 1e-9

    def test_root_integral_single_node(self):
        # one dominant cheap variable makes the root relaxation integral
        q = QuadraticForm(F=np.zeros((4, 1)), sigma_factor=np.zeros((1, 1)),
                          D=np.ones(4))
        inst = card_instance(4, 1, np.array([-10.0, 0.0, 0.0, 0.0]), q,
                             omega=0.5)
        res = solve_bnb(inst)
        assert res.nodes_processed == 1
        assert res.status == BnbStatus.OPTIMAL
        assert res.egap == 0.0

    def test_seeded_cardinality_matches_oracle(self):
        for seed, omega in ((0, 1.0), (1, 2.0), (2, 3.0)):
            inst = seeded_card(seed, omega=omega)
            res = solve_bnb(inst)
            _, obj = enumeration_oracle(inst)
            assert res.incumbent_obj <= obj * (1 - 1e-4) + 1e-4 or \
                abs(res.incumbent_obj - obj) <= 1e-4 * abs(obj + 1e-10)

    def test_grid_matches_path_enumeration(self):
        for seed in (0, 1):
            inst = seeded_grid(seed, omega=2.0)
            res = solve_bnb(inst)
            _, obj = enumeration_oracle(inst)
            assert abs(res.incumbent_obj - obj) <= 1e-4 * abs(obj + 1e-10)

    def test_bounds_monotone_over_run(self, caplog):
        inst = seeded_card(4, omega=3.0)
        caplog.set_level(logging.INFO, logger="conicqp.bnb")
        res = solve_bnb(inst, BnbOptions(log_stride=1))
        lines = caplog.messages
        ubs, lbs = [], []
        for ln in lines:
            parts = dict(p.split("=") for p in ln.split())
            ubs.append(float(parts["ub"]))
            lbs.append(float(parts["lb"]))
        assert all(b <= a + 1e-9 for a, b in zip(ubs, ubs[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(lbs, lbs[1:]))
        assert lines and lines[0].startswith("node=1 ub=")

    def test_warm_start_acceptance_and_tree_determinism(self):
        accepted = repaired = 0
        for seed in range(3):
            inst = seeded_card(seed, omega=2.0)
            res = solve_bnb(inst)
            cold = solve_bnb(inst, BnbOptions(use_warm_starts=False))
            assert res.nodes_processed == cold.nodes_processed
            assert res.incumbent_obj == pytest.approx(cold.incumbent_obj,
                                                      abs=1e-8)
            accepted += res.warm_accepts
            repaired += res.warm_repairs
        assert accepted >= 19 * (accepted + repaired) / 20

    def test_child_bound_dominates_parent(self):
        inst = seeded_card(6, omega=2.0)
        # replay the tree relation through the result invariant
        res = solve_bnb(inst)
        assert res.incumbent_obj >= res.best_bound - 1e-9

    def test_time_limit_reports_gap(self):
        inst = seeded_card(1, omega=3.0)
        res = solve_bnb(inst, BnbOptions(time_limit=0.0))
        assert res.status == BnbStatus.TIME_LIMIT
        assert res.egap > 0 or res.egap == math.inf

    def test_node_limit(self):
        inst = seeded_card(2, omega=3.0)
        res = solve_bnb(inst, BnbOptions(node_limit=2))
        assert res.status == BnbStatus.TIME_LIMIT
        assert res.nodes_processed <= 2

    def test_non_discrete_rejected(self):
        inst = gen_cardinality(GenSpec(family="cardinality", n=10, r=3,
                                       alpha=0.3, omega=1.0, seed=0))
        with pytest.raises(ValueError):
            solve_bnb(inst)

    def test_infeasible_children_pruned(self):
        # forcing lower bounds beyond the cardinality budget must not crash
        inst = seeded_card(8, n=10, omega=1.0)
        lower = inst.poly.lower.copy()
        lower[:3] = 1.0  # three forced ones with b = 2 makes the root infeasible
        poly = Polyhedron(inst.poly.A, inst.poly.b, lower, inst.poly.upper)
        forced = ConicInstance(c=inst.c, omega=inst.omega, q=inst.q, poly=poly,
                               integer_vars=inst.integer_vars)
        assert poly.b[0] == 2.0
        res = solve_bnb(forced)
        assert res.incumbent_x is None
        assert not math.isfinite(res.incumbent_obj)
        assert res.status == BnbStatus.INFEASIBLE
        assert res.egap == math.inf

    def test_counts_include_infeasible_warm_node(self, monkeypatch):
        # the root relaxation has x1 = 0.5; its ceiling child x1 = 1 needs
        # x4 = -0.5, so that node is infeasible, and it is reached warm
        poly = Polyhedron(A=[[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]],
                          b=[2.0, 0.5], lower=np.zeros(4), upper=np.ones(4))
        q = QuadraticForm(F=np.eye(4), sigma_factor=np.eye(4),
                          D=np.full(4, 0.1))
        inst = ConicInstance(c=[-1.0, 0.0, 0.0, 0.0], omega=1.0, q=q,
                             poly=poly, integer_vars=(0, 1, 2))
        real = conicqp.bnb.solve_cd
        counts = []

        def spy(*args, **kwargs):
            try:
                res = real(*args, **kwargs)
            except InfeasibleError as err:
                counts.append((err.qp_count, err.pivot_count))
                raise
            counts.append((res.qp_count, res.pivot_count))
            return res

        monkeypatch.setattr(conicqp.bnb, "solve_cd", spy)
        res = solve_bnb(inst)
        assert res.status == BnbStatus.OPTIMAL
        assert res.infeasible_nodes == 1
        assert res.warm_accepts + res.warm_repairs == res.nodes_processed - 1
        assert len(counts) == res.nodes_processed
        assert res.qp_count == sum(qp for qp, _ in counts)
        assert res.pivot_count == sum(piv for _, piv in counts)


class TestFixedPointJumps:
    """Node relaxations jump t to the fixed point; trees keep their shape."""

    @pytest.mark.parametrize("spec, nodes, accepts, max_qps", [
        # without the jump these trees take 162 and 113 QPs; two of the
        # grid's nodes cross working sets whose fixed point lies outside
        # them, where no jump is taken
        (GenSpec(family="cardinality", n=25, seed=300, r=5, alpha=0.5,
                 omega=2.0, discrete=True), 12, 11, 3 * 12),
        (GenSpec(family="gridpath", p=6, q=6, seed=400, r=5, alpha=0.5,
                 omega=2.0, discrete=True), 7, 6, 4 * 7),
    ], ids=["card25-s300", "grid6x6-s400"])
    def test_benchmark_trees(self, spec, nodes, accepts, max_qps,
                             monkeypatch):
        inst = (gen_cardinality if spec.family == "cardinality"
                else gen_grid_path)(spec)
        real = conicqp.bnb.solve_cd
        jumps = []

        def spy(*args, **kwargs):
            res = real(*args, **kwargs)
            jumps.append((res.jumps_tried, res.jumps_taken))
            return res

        monkeypatch.setattr(conicqp.bnb, "solve_cd", spy)
        res = solve_bnb(inst)
        assert res.nodes_processed == nodes
        assert res.warm_accepts == accepts and res.warm_repairs == 0
        assert res.qp_count <= max_qps
        assert res.jumps_tried == sum(tried for tried, _ in jumps)
        assert res.jumps_taken == sum(taken for _, taken in jumps) >= 1
        _, ref = enumeration_oracle(inst)
        assert res.incumbent_obj <= ref + 1e-4 * abs(ref)


class TestUncertifiedRelaxations:
    """Node relaxations stopped by a pivot cap bound a node from above only."""

    @pytest.mark.parametrize("inst", [seeded_card(2), seeded_card(4),
                                      seeded_grid(4)],
                             ids=["card2", "card4", "grid4"])
    def test_never_prune_or_bound(self, inst, capped_dual_starts):
        # without the certification check each of these trees reported
        # Optimal with an incumbent 9-74% worse than the enumeration optimum
        _, opt = enumeration_oracle(inst)
        res = solve_bnb(inst)
        assert res.uncertified_nodes > 0
        assert res.best_bound <= opt + 1e-9 * abs(opt)
        assert res.incumbent_obj >= opt - 1e-9 * abs(opt)
        assert res.status == BnbStatus.UNCERTIFIED
        assert res.egap > BnbOptions().gap_tol

    def test_uncapped_tree_has_no_uncertified_nodes(self):
        inst = seeded_card(2)
        _, opt = enumeration_oracle(inst)
        res = solve_bnb(inst)
        assert res.uncertified_nodes == 0
        assert res.status in (BnbStatus.OPTIMAL, BnbStatus.GAP_REACHED)
        assert abs(res.incumbent_obj - opt) <= 1e-4 * abs(opt)

    def test_uncertified_status_never_prunes_or_bounds(self, monkeypatch):
        real = conicqp.bnb.solve_cd

        def uncertified(*args, **kwargs):
            res = real(*args, **kwargs)
            return dataclasses.replace(res, status=SolveStatus.UNCERTIFIED)

        monkeypatch.setattr(conicqp.bnb, "solve_cd", uncertified)
        res = solve_bnb(seeded_card(2, n=8))
        assert res.uncertified_nodes == res.nodes_processed > 1
        assert res.best_bound == -math.inf
        assert res.status == BnbStatus.UNCERTIFIED
