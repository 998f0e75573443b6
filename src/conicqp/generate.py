"""Synthetic instance families and the on-disk instance format.

Two feasible-region families are generated:

* cardinality: one equality sum(x) = b with b = floor(n/5) and box [0, 1];
* grid path: unit flow from the top-left to the bottom-right corner of a
  p x q grid whose arcs point right and down, giving 2pq - p - q arc
  variables with box [0, 1].  Flow conservation is written for every node
  except the sink (whose balance row is implied by the others), keeping the
  equality system full row rank.

Objectives use Q = F (H H') F' + diag(D) with D ~ U(0,1), H entries
~ U(-1,1), F entries zero with probability 1 - alpha and U(-1,1) otherwise,
and costs c_i ~ U(-2 sqrt(Q_ii), 0).  Randomness comes from numpy's PCG64
generator seeded from GenSpec.seed; saved instance files are the canonical
cross-implementation artifacts, not the RNG stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import ConicInstance, Polyhedron, QuadraticForm

FILE_VERSION = 1


@dataclass
class GenSpec:
    """Parameters of one synthetic instance."""

    family: str                      # "cardinality" or "gridpath"
    n: int | None = None             # cardinality size
    p: int | None = None             # grid rows
    q: int | None = None             # grid columns
    r: int = 5
    alpha: float = 0.1
    omega: float = 1.0
    seed: int = 0
    discrete: bool = False

    def __post_init__(self):
        if self.family not in ("cardinality", "gridpath"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "cardinality":
            if self.n is None or self.n < 5:
                raise ValueError("cardinality instances need n >= 5")
        else:
            if self.p is None or self.q is None or self.p < 2 or self.q < 2:
                raise ValueError("grid instances need p, q >= 2")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.r < 1:
            raise ValueError("rank must be at least 1")
        if self.omega <= 0:
            raise ValueError("omega must be positive")

    def meta(self) -> dict:
        out = {"family": self.family, "r": self.r, "alpha": self.alpha,
               "omega": self.omega, "seed": int(self.seed),
               "discrete": bool(self.discrete)}
        if self.family == "cardinality":
            out["n"] = int(self.n)
        else:
            out["p"], out["q"] = int(self.p), int(self.q)
        return out


def gen_quadratic(n: int, r: int, alpha: float,
                  rng: np.random.Generator) -> QuadraticForm:
    """Random PSD form Q = F (H H') F' + diag(D).

    Draw order (D, then H, then the F mask, then the F values) is fixed so a
    seed fully determines the instance.
    """
    D = rng.uniform(0.0, 1.0, n)
    H = rng.uniform(-1.0, 1.0, (r, r))
    mask = rng.random((n, r)) < alpha
    values = rng.uniform(-1.0, 1.0, (n, r))
    F = np.where(mask, values, 0.0)
    return QuadraticForm(F=F, sigma_factor=H, D=D)


def gen_costs(q: QuadraticForm, rng: np.random.Generator) -> np.ndarray:
    """Linear coefficients c_i ~ Uniform(-2 sqrt(Q_ii), 0)."""
    s = np.sqrt(q.diagonal())
    return rng.uniform(-2.0 * s, 0.0)


def gen_cardinality(spec: GenSpec) -> ConicInstance:
    """Cardinality polytope instance: sum(x) = floor(n/5), 0 <= x <= 1."""
    if spec.family != "cardinality":
        raise ValueError("spec is not a cardinality spec")
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    q = gen_quadratic(n, spec.r, spec.alpha, rng)
    c = gen_costs(q, rng)
    b = float(n // 5)
    poly = Polyhedron(A=np.ones((1, n)), b=np.array([b]),
                      lower=np.zeros(n), upper=np.ones(n))
    feas = np.full(n, b / n)
    assert poly.contains(feas), "generated cardinality polytope must be nonempty"
    integer_vars = tuple(range(n)) if spec.discrete else ()
    return ConicInstance(c=c, omega=spec.omega, q=q, poly=poly,
                         integer_vars=integer_vars, meta=spec.meta())


def grid_arcs(p: int, q: int) -> list[tuple[int, int]]:
    """Arc list of the p x q grid in row-major node order: right, then down."""
    arcs = []
    for i in range(p):
        for j in range(q):
            if j + 1 < q:
                arcs.append((i * q + j, i * q + j + 1))
            if i + 1 < p:
                arcs.append((i * q + j, (i + 1) * q + j))
    return arcs


def gen_grid_path(spec: GenSpec) -> ConicInstance:
    """Path polytope of the acyclic p x q grid with right/down arcs."""
    if spec.family != "gridpath":
        raise ValueError("spec is not a gridpath spec")
    rng = np.random.default_rng(spec.seed)
    p_, q_ = spec.p, spec.q
    arcs = grid_arcs(p_, q_)
    n = len(arcs)
    assert n == 2 * p_ * q_ - p_ - q_
    q = gen_quadratic(n, spec.r, spec.alpha, rng)
    c = gen_costs(q, rng)
    sink = p_ * q_ - 1
    # flow conservation at every node except the sink (implied row)
    A = np.zeros((p_ * q_ - 1, n))
    b = np.zeros(p_ * q_ - 1)
    b[0] = 1.0  # unit supply at the source, node 0
    for k, (u, v) in enumerate(arcs):
        if u != sink:
            A[u, k] += 1.0
        if v != sink:
            A[v, k] -= 1.0
    poly = Polyhedron(A=A, b=b, lower=np.zeros(n), upper=np.ones(n))
    feas = np.zeros(n)
    for k, (u, v) in enumerate(arcs):  # walk the top row, then the last column
        ui, uj = divmod(u, q_)
        vi, vj = divmod(v, q_)
        if (ui == 0 and vi == 0) or (uj == q_ - 1 and vj == q_ - 1):
            feas[k] = 1.0
    assert poly.contains(feas), "generated grid polytope must be nonempty"
    integer_vars = tuple(range(n)) if spec.discrete else ()
    return ConicInstance(c=c, omega=spec.omega, q=q, poly=poly,
                         integer_vars=integer_vars, meta=spec.meta())


def generate(spec: GenSpec) -> ConicInstance:
    if spec.family == "cardinality":
        return gen_cardinality(spec)
    return gen_grid_path(spec)


# ----------------------------------------------------------------------
# On-disk format: versioned JSON with the factored objective and a
# row-sparse equality matrix; floats serialize via repr and so round-trip
# bit-exactly.
# ----------------------------------------------------------------------

def save_instance(inst: ConicInstance, path: str | Path):
    poly = inst.poly
    rows, cols = np.nonzero(poly.A)
    doc = {
        "version": FILE_VERSION,
        "meta": inst.meta,
        "n": inst.n,
        "m": poly.m,
        "omega": inst.omega,
        "c": inst.c.tolist(),
        "F": inst.q.F.tolist(),
        "H": inst.q.sigma_factor.tolist(),
        "D": inst.q.D.tolist(),
        "A": [[int(i), int(j), float(poly.A[i, j])] for i, j in zip(rows, cols)],
        "b": poly.b.tolist(),
        "lower": poly.lower.tolist(),
        "upper": poly.upper.tolist(),
        "integer_vars": list(inst.integer_vars),
    }
    Path(path).write_text(json.dumps(doc))


def _require(doc: dict, key: str):
    if key not in doc:
        raise ValueError(f"instance file is missing field {key!r}")
    return doc[key]


def _integer(value, what: str) -> int:
    """A JSON number with an integral value, as an int: 2 and 2.0 pass;
    0.7, "2" and true, which ``int`` would take, are refused."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"{what} must be an integral number, not {value!r}")


def load_instance(path: str | Path) -> ConicInstance:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"instance file {path}: malformed JSON "
                         f"(line {exc.lineno}, column {exc.colno})") from exc
    version = _require(doc, "version")
    if version != FILE_VERSION:
        raise ValueError(
            f"instance file {path}: version {version} not supported "
            f"(expected {FILE_VERSION})"
        )
    try:
        n = _integer(_require(doc, "n"), "n")
        m = _integer(_require(doc, "m"), "m")
        F = np.asarray(_require(doc, "F"), dtype=float).reshape(n, -1)
        H = np.asarray(_require(doc, "H"), dtype=float)
        D = np.asarray(_require(doc, "D"), dtype=float)
        q = QuadraticForm(F=F, sigma_factor=H, D=D)
        A = np.zeros((m, n))
        for entry in _require(doc, "A"):
            i, j, v = entry
            # save_instance writes ints, which need no call: an n = 3,200
            # file has 3,200 entries, each checked in this pass
            if type(i) is not int or type(j) is not int:
                i, j = _integer(i, "row index"), _integer(j, "column index")
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError(f"A entry {entry!r} lies outside the "
                                 f"{m} x {n} matrix")
            if type(v) is not float and type(v) is not int:
                raise ValueError(f"A entry {entry!r}: {v!r} is not a number")
            A[i, j] = v
        poly = Polyhedron(
            A=A, b=np.asarray(_require(doc, "b"), dtype=float),
            lower=np.asarray(_require(doc, "lower"), dtype=float),
            upper=np.asarray(_require(doc, "upper"), dtype=float),
        )
        inst = ConicInstance(
            c=np.asarray(_require(doc, "c"), dtype=float),
            omega=float(_require(doc, "omega")), q=q, poly=poly,
            integer_vars=tuple(_integer(i, "integer variable")
                               for i in _require(doc, "integer_vars")),
            meta=dict(doc.get("meta", {})),
        )
    except (ValueError, TypeError, IndexError) as exc:
        raise ValueError(f"instance file {path}: {exc}") from exc
    return inst
