"""The benchmark's tracer still reads what the package hands it.

``perfbench/tracing.py`` wraps ``solvers.solve_qp`` (called as ``(problem,
warm, mode, ...)``) and ``bnb.solve_cd``, and reads ``QpSolution``'s
``iterations``, ``pivot_log``, ``used_phase1``, ``status`` and ``basis``,
and ``ConicSolveResult.first_qp_used_phase1``.  A rename of any of them
would otherwise show only in a benchmark run, as per-layer figures that
read 0 or a run that fails.  The tracer is loaded read-only from its file,
as ``tests/outcomes.py`` loads ``perfbench/workloads.py``; nothing in
``perfbench/`` is changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import conicqp.generate as G
from conicqp import solve_bisection, solve_bnb, solve_cd

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        del sys.modules[spec.name]


def test_layer_metrics_see_every_driver(tracing):
    recipe = dict(family="gridpath", p=4, q=4, r=5, alpha=0.5, omega=2.0,
                  seed=1)
    grid = G.generate(G.GenSpec(**recipe))
    twin = G.generate(G.GenSpec(**recipe, discrete=True))
    tracer = tracing.Tracer()
    with tracer.installed():
        for name, run in (("solvers.cd", lambda: solve_cd(grid)),
                          ("solvers.bisect", lambda: solve_bisection(grid)),
                          ("bnb", lambda: solve_bnb(twin))):
            with tracer.span(name, root=True):
                run()
    m = tracing.layer_metrics(tracer.spans, 1)
    for key in ("qp.warm.calls", "qp.dual.calls", "solvers.cd.qp_count",
                "solvers.bisect.qp_count", "bnb.nodes"):
        assert m[key] > 0, key
    assert 0 < m["bnb.warm_accept_frac"] <= 1
