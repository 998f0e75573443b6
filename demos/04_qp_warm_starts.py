#!/usr/bin/env python3
"""Why an active-set engine: warm starts across related QPs.

The outer loops solve sequences of QPs that differ only in the quadratic
scale, and branch-and-bound re-solves the same QP after tightening one
variable bound.  An optimal basis stays primal feasible in the first case
and dual feasible in the second, so re-solves cost a handful of pivots
where a cold solve costs hundreds.
"""

import numpy as np

from conicqp import Polyhedron, QpProblem, StartMode, solve_qp
from conicqp.generate import GenSpec, gen_cardinality

inst = gen_cardinality(GenSpec(family="cardinality", n=150, r=10, alpha=0.3,
                               omega=2.0, seed=21))
poly = inst.poly

print("primal warm starts along a scale sweep (the coordinate-descent pattern)")
print(" sigma    warm pivots   cold pivots")
prev = None
for sigma in (2.0, 1.6, 1.3, 1.15, 1.08, 1.04, 1.02):
    p = QpProblem(linear=inst.c, quad=inst.q, sigma=sigma, offset=0.0,
                  poly=poly)
    warm = solve_qp(p) if prev is None else solve_qp(p, warm=prev.basis,
                                                     warm_x=prev.x)
    cold = solve_qp(p)
    star = " (cold start)" if prev is None else ""
    print(f" {sigma:5.2f}   {warm.iterations:10d}   {cold.iterations:10d}{star}")
    assert abs(warm.objective - cold.objective) <= 1e-9 * (1 + abs(cold.objective))
    prev = warm

print("\ndual warm start after tightening one bound (the branch-and-bound pattern)")
base = solve_qp(QpProblem(linear=inst.c, quad=inst.q, sigma=1.3, offset=0.0,
                          poly=poly))
j = int(np.argmax(np.minimum(base.x, 1 - base.x)))  # most fractional variable
upper = poly.upper.copy()
upper[j] = 0.0
child = QpProblem(linear=inst.c, quad=inst.q, sigma=1.3, offset=0.0,
                  poly=Polyhedron(poly.A, poly.b, poly.lower, upper))
re = solve_qp(child, warm=base.basis, mode=StartMode.DUAL_START, warm_x=base.x)
cold = solve_qp(child)
print(f"fix x[{j}] to 0: dual restart took {re.iterations} pivots, "
      f"cold solve {cold.iterations}")
print(f"objectives agree to {abs(re.objective - cold.objective):.2e}; "
      f"child >= parent: {re.objective >= base.objective - 1e-9}")
