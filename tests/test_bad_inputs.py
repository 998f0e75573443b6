"""Bad inputs end with a certificate or a typed outcome, never a silent one.

The generator covers degenerate, rank-deficient and pinned data: cardinality,
dense random or grid-path row sets (grids state all p*q flow rows, so one
row is always dependent), pinned (lower == upper) variables, a duplicated
or dependent extra row, D zero or 1e-10, tied or positive costs, and omega
1e-6 or 1e6.  Every drawn instance is feasible: its rows are built around a
binary point, and pinned variables sit at that point's values.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conicqp import (
    BnbOptions,
    BnbStatus,
    ConicInstance,
    InfeasibleError,
    LpFailureError,
    Polyhedron,
    QuadraticForm,
    SingularKktError,
    SolveStatus,
    solve_bisection,
    solve_bnb,
    solve_cd,
)
from conicqp.bnb import BNB_SOLVED
from conicqp.generate import gen_costs, gen_quadratic, grid_arcs
from conicqp.qp import AT_LOWER

TYPED_ERRORS = (InfeasibleError, LpFailureError, SingularKktError)
SOLVED = (SolveStatus.OPTIMAL, SolveStatus.TOLERANCE_REACHED)


def _grid_rows(p, q, rng):
    """All p*q flow rows of a p x q grid and a random monotone path."""
    arcs = grid_arcs(p, q)
    A = np.zeros((p * q, len(arcs)))
    for k, (u, v) in enumerate(arcs):
        A[u, k], A[v, k] = 1.0, -1.0
    x0 = np.zeros(len(arcs))
    node, index = 0, {a: k for k, a in enumerate(arcs)}
    while node != p * q - 1:
        i, j = divmod(node, q)
        right = j + 1 < q and (i + 1 == p or rng.random() < 0.5)
        nxt = node + 1 if right else node + q
        x0[index[(node, nxt)]] = 1.0
        node = nxt
    return A, x0


def bad_instance(seed, rows, pins, extra, d_scale, costs, omega,
                 discrete=False):
    """One feasible bad-input instance; see the module docstring."""
    rng = np.random.default_rng(seed)
    if rows == "grid":
        A, x0 = _grid_rows(int(rng.integers(2, 6)), int(rng.integers(2, 6)), rng)
        n = A.shape[1]
    else:
        n = int(rng.integers(6, 15))
        x0 = np.zeros(n)
        x0[rng.choice(n, size=max(1, n // 3), replace=False)] = 1.0
        A = (np.ones((1, n)) if rows == "card"
             else rng.uniform(-1, 1, (int(rng.integers(2, 4)), n)))
    if extra == "duplicate":
        A = np.vstack([A, A[rng.integers(A.shape[0])]])
    elif extra == "dependent":
        A = np.vstack([A, rng.uniform(-2, 2, A.shape[0]) @ A])
    lower, upper = np.zeros(n), np.ones(n)
    pinned = rng.choice(n, size=pins, replace=False)
    lower[pinned] = upper[pinned] = x0[pinned]
    poly = Polyhedron(A=A, b=A @ x0, lower=lower, upper=upper)
    base = gen_quadratic(n, int(rng.integers(1, 4)), 0.5, rng)
    q = QuadraticForm(F=base.F, sigma_factor=base.sigma_factor,
                      D=d_scale * base.D)
    if costs == "tied":
        c = -np.ones(n)
    elif costs == "positive":
        c = -gen_costs(base, rng)
    else:
        c = gen_costs(base, rng)
    return ConicInstance(c=c, omega=omega, q=q, poly=poly,
                         integer_vars=tuple(range(n)) if discrete else ())


bad_params = st.fixed_dictionaries({
    "seed": st.integers(0, 10_000),
    "rows": st.sampled_from(["card", "dense", "grid"]),
    "pins": st.integers(0, 2),
    "extra": st.sampled_from(["none", "duplicate", "dependent"]),
    "d_scale": st.sampled_from([1.0, 0.0, 1e-10]),
    "costs": st.sampled_from(["random", "tied", "positive"]),
    "omega": st.sampled_from([1.0, 1e-6, 1e6]),
})


def assert_typed_convex(inst, solver):
    """A solved status carries a certificate at a feasible x; any other
    status (TZero, IterLimit, Uncertified) or a typed error is accepted."""
    try:
        res = solver(inst)
    except TYPED_ERRORS:
        return
    if res.status in SOLVED:
        assert res.kkt is not None, "solved without a certificate"
        assert inst.poly.contains(res.x, tol=1e-7)


@given(params=bad_params)
@settings(max_examples=70)
def test_convex_drivers_certify_or_type(params):
    inst = bad_instance(**params)
    assert_typed_convex(inst, solve_cd)
    assert_typed_convex(inst, solve_bisection)


@given(params=bad_params.filter(lambda params: params["pins"] > 0))
@settings(max_examples=30)
def test_pinned_variables_stay_at_lower(params):
    # the engine's multiplier rule relies on this tag for pinned variables
    inst = bad_instance(**params)
    try:
        res = solve_cd(inst)
    except TYPED_ERRORS:
        return
    pinned = inst.poly.lower == inst.poly.upper
    assert np.all(res.basis.status[pinned] == AT_LOWER)


@given(params=bad_params)
@settings(max_examples=20)
def test_bnb_certifies_or_types(params):
    inst = bad_instance(**params, discrete=True)
    try:
        res = solve_bnb(inst, BnbOptions(node_limit=60))
    except TYPED_ERRORS:
        return
    if res.status in BNB_SOLVED:
        x = res.incumbent_x
        assert inst.poly.contains(x, tol=1e-7)
        np.testing.assert_allclose(x, np.round(x), atol=1e-5)


class TestJumpGuards:
    """Corpus instances that need the late checks of the fixed-point jump."""

    def test_no_jump_into_the_t_zero_regime(self):
        # corpus cd 708 (D = 0, omega = 1e6): its working set's fixed point
        # is t* = 1.4e-14, where the next QP's KKT system is singular
        inst = bad_instance(seed=4175, rows="card", pins=1, extra="none",
                            d_scale=0.0, costs="random", omega=1e6)
        res = solve_cd(inst)
        assert res.status == SolveStatus.T_ZERO
        assert res.jumps_tried == 1 and res.jumps_taken == 0

    def test_no_jump_that_leaves_t_in_place(self):
        # corpus B&B tree 4 (omega = 1e-6): a node's jump would move t by
        # 4e-11 relative, and the QP there cycles to its iteration limit
        inst = bad_instance(seed=9220, rows="dense", pins=1, extra="dependent",
                            d_scale=1e-10, costs="random", omega=1e-6,
                            discrete=True)
        res = solve_bnb(inst, BnbOptions(node_limit=200))
        assert res.status == BnbStatus.OPTIMAL
        assert res.uncertified_nodes == 0
