"""Simplex-style QP algorithms for conic quadratic minimization over polyhedra.

Minimizes c'x + omega * sqrt(x'Qx) over {Ax = b, l <= x <= u} through a
perspective reformulation: outer loops (coordinate descent, accelerated
bisection) drive a scalar t while a warm-startable active-set QP engine
solves the inner subproblems, and a branch-and-bound driver handles the
integer-restricted counterpart.
"""

from .model import (
    ConicInstance,
    ConicSolveResult,
    InfeasibleError,
    KktCertificate,
    LpFailureError,
    Polyhedron,
    QuadraticForm,
    SingularKktError,
    SolveStatus,
    ZeroQuadraticError,
    dual_bound_estimate,
    eval_h,
    eval_objective,
    grad_f,
    kkt_residual,
    subproblem_objective,
)
from .qp import (
    QpProblem,
    QpSolution,
    QpStatus,
    StartMode,
    WorkingBasis,
    solve_lp,
    solve_qp,
)
from .solvers import (
    BisectOptions,
    CdOptions,
    solve_bisection,
    solve_cd,
)
from .bnb import (
    BnbOptions,
    BnbResult,
    BnbStatus,
    branch_select,
    enumeration_oracle,
    solve_bnb,
)
from .generate import (
    GenSpec,
    gen_cardinality,
    gen_costs,
    gen_grid_path,
    gen_quadratic,
    load_instance,
    save_instance,
)

__all__ = [
    "BisectOptions",
    "BnbOptions",
    "BnbResult",
    "BnbStatus",
    "CdOptions",
    "ConicInstance",
    "ConicSolveResult",
    "GenSpec",
    "InfeasibleError",
    "KktCertificate",
    "LpFailureError",
    "Polyhedron",
    "QpProblem",
    "QpSolution",
    "QpStatus",
    "QuadraticForm",
    "SingularKktError",
    "SolveStatus",
    "StartMode",
    "WorkingBasis",
    "ZeroQuadraticError",
    "branch_select",
    "dual_bound_estimate",
    "enumeration_oracle",
    "eval_h",
    "eval_objective",
    "gen_cardinality",
    "gen_costs",
    "gen_grid_path",
    "gen_quadratic",
    "grad_f",
    "kkt_residual",
    "load_instance",
    "save_instance",
    "solve_bisection",
    "solve_bnb",
    "solve_cd",
    "solve_lp",
    "solve_qp",
    "subproblem_objective",
]

__version__ = "0.1.0"
