#!/usr/bin/env python3
"""The objective, its perspective reformulation, and the fixed-t subproblem.

The solvers in this package minimize c'x + omega * sqrt(x'Qx) over a
polyhedron.  The square root is awkward to handle directly, so the solvers
work with an equivalent two-variable form built from the perspective of the
quadratic: for t > 0,

    c'x + omega * sqrt(x'Qx)  =  min_t  c'x + (omega/2) * (x'Qx)/t + (omega/2) * t,

with the minimum attained at t = sqrt(x'Qx).  For a fixed t the right-hand
side is a plain convex QP, which is what the inner engine solves.  Its
t -> inf limit drops the quadratic: the LP relaxation min c'x, which HiGHS
solves (``solve_lp``) and whose vertex starts the outer loops.
"""

import math

import numpy as np

from conicqp import (
    ConicInstance,
    Polyhedron,
    QuadraticForm,
    eval_h,
    eval_objective,
    solve_lp,
    subproblem_objective,
)

# a tiny portfolio-style instance: two assets, unit covariance, budget 1
q = QuadraticForm(F=np.zeros((2, 1)), sigma_factor=np.zeros((1, 1)),
                  D=np.ones(2))
poly = Polyhedron(A=[[1.0, 1.0]], b=[1.0], lower=[0, 0], upper=[1, 1])
inst = ConicInstance(c=np.array([-0.3, -0.1]), omega=1.0, q=q, poly=poly)

x = np.array([0.5, 0.5])
print("point x                 :", x)
print("conic objective         :", eval_objective(inst, x))

# the perspective function h(x, t) = x'Qx / t, with the closure at t = 0
t = math.sqrt(inst.q.quad(x))
print("t = sqrt(x'Qx)          :", t)
print("h(x, t)                 :", eval_h(inst.q, x, t))
print("h(0, 0)                 :", eval_h(inst.q, np.zeros(2), 0.0))
print("h(x, 0)                 :", eval_h(inst.q, x, 0.0), "(infeasible pairing)")

# the sandwich identity: at t = sqrt(x'Qx) the reformulation is exact
lhs = inst.c @ x + 0.5 * inst.omega * eval_h(inst.q, x, t) + 0.5 * inst.omega * t
print("\nreformulated value      :", lhs)
print("difference to the conic :", abs(lhs - eval_objective(inst, x)))

# the fixed-t subproblem is a QP with curvature omega/t and offset omega*t/2
for t_fixed in (0.5, 1.0, 2.0):
    qp = subproblem_objective(inst, t_fixed)
    print(f"t = {t_fixed:<4}: sigma = {qp.sigma:.3f}, offset = {qp.offset:.3f}  (QP)")

# t -> inf leaves the LP relaxation, a cost and a polyhedron, not a QP
lp = solve_lp(inst.c, inst.poly)
print(f"t = inf : LP relaxation vertex {lp.x}, c'x = {lp.objective:.3f}, "
      f"t_max = sqrt(x'Qx) = {math.sqrt(inst.q.quad(lp.x)):.3f}")
