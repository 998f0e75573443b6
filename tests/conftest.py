"""Shared fixtures and the hypothesis profile."""

import numpy as np
import pytest
from hypothesis import settings

import conicqp.solvers
from conicqp import StartMode
from conicqp.qp import BASIC

# the same examples on every run: tier-1 must not depend on a random draw
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def capped_dual_starts(monkeypatch):
    """Cap every dual-start QP of the outer loops at one pivot, so B&B node
    relaxations stop at their iteration limit uncertified."""
    real = conicqp.solvers.solve_qp

    def capped(problem, warm=None, mode=StartMode.PRIMAL_START, **kwargs):
        if mode == StartMode.DUAL_START:
            kwargs["pivot_cap"] = 1
        return real(problem, warm=warm, mode=mode, **kwargs)

    monkeypatch.setattr(conicqp.solvers, "solve_qp", capped)


@pytest.fixture
def off_the_equalities(monkeypatch):
    """Hand the outer loops every engine QP solution with x moved 1e-4 off
    Ax = b, along its lowest-index free variable toward that variable's
    farther bound, so no run ends at a point where a certificate holds."""
    real = conicqp.solvers.solve_qp

    def moved(problem, *args, **kwargs):
        sol = real(problem, *args, **kwargs)
        free = np.flatnonzero(sol.basis.status == BASIC)
        if free.size:
            j = free[0]
            up = problem.poly.upper[j] - sol.x[j] >= sol.x[j] - problem.poly.lower[j]
            sol.x[j] += 1e-4 if up else -1e-4
        return sol

    monkeypatch.setattr(conicqp.solvers, "solve_qp", moved)
