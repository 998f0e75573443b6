"""The benchmark's three workloads and the instance sets they run on.

Each workload is a fixed population of generated instances, laid out in
rounds (one instance per size or family in a round).  The ``--seed`` of a
run relabels the variables of every instance by a seeded permutation: the
input arrays change with the seed while the optimum and the difficulty of
each instance stay put, so a run's figures describe the workload rather
than a lucky or unlucky draw of instances.

Instances reach the drivers only through the package's JSON format: set-up
generates, relabels, saves and reloads every instance, and every timed
solve then loads its own copy, because solves build ``QuadraticForm``
caches lazily on the instance they are given.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import conicqp.generate as G
from conicqp import (
    ConicInstance,
    Polyhedron,
    QuadraticForm,
    enumeration_oracle,
    solve_bisection,
    solve_bnb,
    solve_cd,
)


@dataclass(frozen=True)
class Workload:
    name: str
    drivers: tuple[str, ...]          # driver names solved on every instance
    rounds: tuple[tuple[G.GenSpec, ...], ...]


DRIVERS = {"cd": solve_cd, "bisect": solve_bisection, "bnb": solve_bnb}


def _card(n, seed, **kw):
    return G.GenSpec(family="cardinality", n=n, seed=seed, **kw)


def _grid(k, seed, **kw):
    return G.GenSpec(family="gridpath", p=k, q=k, seed=seed, **kw)


_CONVEX = dict(r=20, alpha=0.1, omega=2.0)
_DISCRETE = dict(r=5, alpha=0.5, omega=2.0, discrete=True)

WORKLOADS = {w.name: w for w in (
    # LP-bound: small free sets (about 30), the one-off LP relaxation with
    # its Phase-1 dominates each solve
    Workload("convex-card", ("cd", "bisect"), tuple(
        tuple(_card(n, 100 + 3 * k + i, **_CONVEX)
              for i, n in enumerate((800, 1600, 3200)))
        for k in range(4))),
    # dense-KKT-bound: free sets of about 260 make each pivot a dense
    # factor build or bordered solve
    Workload("convex-grid", ("cd", "bisect"), tuple(
        tuple(_grid(g, 200 + 3 * k + i, **_CONVEX)
              for i, g in enumerate((12, 14, 16)))
        for k in range(3))),
    # many tiny warm QPs per tree; per-QP and per-node fixed cost dominate
    Workload("bnb-discrete", ("bnb",), tuple(
        (_card(25, 300 + k, **_DISCRETE), _grid(6, 400 + k, **_DISCRETE))
        for k in range(12))),
)}


def relabel(inst: ConicInstance, perm: np.ndarray) -> ConicInstance:
    """The same instance with variable j renamed to position perm^-1[j]."""
    q = QuadraticForm(F=inst.q.F[perm], sigma_factor=inst.q.sigma_factor,
                      D=inst.q.D[perm])
    poly = Polyhedron(A=inst.poly.A[:, perm], b=inst.poly.b,
                      lower=inst.poly.lower[perm], upper=inst.poly.upper[perm])
    inv = np.argsort(perm)
    return ConicInstance(c=inst.c[perm], omega=inst.omega, q=q, poly=poly,
                         integer_vars=tuple(int(inv[j]) for j in inst.integer_vars),
                         meta=dict(inst.meta))


@dataclass
class Instance:
    label: str
    path: Path
    spec: G.GenSpec


def _round_trip_equal(a: ConicInstance, b: ConicInstance) -> bool:
    return (np.array_equal(a.c, b.c) and np.array_equal(a.q.F, b.q.F)
            and np.array_equal(a.q.D, b.q.D)
            and np.array_equal(a.poly.A, b.poly.A)
            and np.array_equal(a.poly.lower, b.poly.lower)
            and a.integer_vars == b.integer_vars)


def set_up(work: Workload, seed: int, tmp: Path) -> list[list[Instance]]:
    """Generate, relabel, save and reload the workload's instances.

    Raises if an instance does not survive the JSON round trip unchanged.
    """
    rng = np.random.default_rng([seed, 7919])
    rounds = []
    for k, specs in enumerate(work.rounds):
        row = []
        for i, spec in enumerate(specs):
            inst = G.generate(spec)
            inst = relabel(inst, rng.permutation(inst.n))
            path = tmp / f"{work.name}-{k}-{i}.json"
            G.save_instance(inst, path)
            if not _round_trip_equal(inst, G.load_instance(path)):
                raise RuntimeError(f"{path.name} changed in the JSON round trip")
            size = spec.n if spec.family == "cardinality" else f"{spec.p}x{spec.q}"
            row.append(Instance(f"{spec.family}-{size}-s{spec.seed}", path, spec))
        rounds.append(row)
    return rounds


def timed_set_up(work: Workload, seed: int, tmp: Path, repeats: int
                 ) -> tuple[list[list[Instance]], list[float]]:
    """Set up ``repeats`` times; returns the instance set and each duration."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        rounds = set_up(work, seed, tmp)
        times.append(time.perf_counter() - t0)
    return rounds, times


def oracle_values(rounds: list[list[Instance]]) -> dict[str, float]:
    """Enumeration optimum of every discrete instance, keyed by label.

    Enumeration runs on the unrelabeled instance, whose optimum is the same;
    the grid enumerator walks paths by the generator's arc numbering.
    """
    out = {}
    for row in rounds:
        for item in row:
            if item.spec.discrete:
                _, z = enumeration_oracle(G.generate(item.spec))
                out[item.label] = z
    return out
