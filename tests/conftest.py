"""Shared fixtures and the hypothesis profile."""

import pytest
from hypothesis import settings

import conicqp.solvers
from conicqp import StartMode

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
