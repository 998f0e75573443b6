#!/usr/bin/env python3
"""Branch-and-bound for the binary-restricted problem.

Each node solves its continuous relaxation to optimality with coordinate
descent, dual-starting the first QP from the parent's basis at the parent's
scale t.  Branching fixes the variable farthest from an integer; the child
violating its new bound least is processed next and the sibling joins a
best-bound list.  Small instances are verified against brute-force
enumeration of all feasible supports.  Progress lines go through the
``conicqp.bnb`` logger, which this script routes to standard output.
"""

import logging
import sys

from conicqp import BnbOptions, enumeration_oracle, solve_bnb
from conicqp.generate import GenSpec, gen_cardinality, gen_grid_path

card = gen_cardinality(GenSpec(family="cardinality", n=15, r=10, alpha=0.5,
                               omega=3.0, seed=2, discrete=True))

logging.basicConfig(stream=sys.stdout, format="%(message)s")
logging.getLogger("conicqp.bnb").setLevel(logging.INFO)

print("cardinality instance: n=15, choose 3, omega=3")
res = solve_bnb(card, BnbOptions(log_stride=5))
print(f"status={res.status.value} nodes={res.nodes_processed} "
      f"egap={res.egap:.2e}")
print(f"incumbent objective : {res.incumbent_obj:.10f}")
_, exact = enumeration_oracle(card)
print(f"enumeration oracle  : {exact:.10f}  "
      f"(gap {abs(res.incumbent_obj - exact):.2e} over 455 supports)")
print(f"dual warm starts    : {res.warm_accepts} accepted, "
      f"{res.warm_repairs} repaired")

grid = gen_grid_path(GenSpec(family="gridpath", p=4, q=4, r=5, alpha=0.5,
                             omega=2.0, seed=0, discrete=True))
print("\ngrid-path instance: 4x4 grid, 24 binary arcs, 20 paths")
res = solve_bnb(grid)
_, exact = enumeration_oracle(grid)
print(f"status={res.status.value} nodes={res.nodes_processed} "
      f"incumbent={res.incumbent_obj:.10f} oracle={exact:.10f}")

cold = solve_bnb(grid, BnbOptions(use_warm_starts=False))
print(f"warm-start tree: {res.nodes_processed} nodes, {res.pivot_count} pivots; "
      f"cold tree: {cold.nodes_processed} nodes, {cold.pivot_count} pivots")
