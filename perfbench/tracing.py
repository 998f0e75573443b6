"""Spans around the package's module-level entry points, taken from outside.

``Tracer.installed()`` swaps wrappers into the module attributes each layer
calls through, and restores the originals on exit; the package itself is
not modified.  Wrapped entry points and the span names they produce:

* ``conicqp.solvers.solve_qp`` -> ``qp``, tagged ``lp`` when sigma == 0,
  ``dual`` for a DualStart, ``warm`` for another warm basis, else ``cold``;
  pivot counts by kind come from ``QpSolution.pivot_log``;
* ``conicqp.bnb.solve_cd`` -> ``bnb.node`` (one node relaxation);
* ``conicqp.solvers.kkt_residual``, ``dual_bound_estimate`` and
  ``eval_objective`` -> ``model.<name>``;
* ``conicqp.generate.generate`` -> ``generate.gen``, ``save_instance`` and
  ``load_instance`` -> ``generate.io``.

The benchmark opens the root span of each driver call itself
(``solvers.cd``, ``solvers.bisect`` or ``bnb``).  Spans stay in memory; a
span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import conicqp.bnb
import conicqp.generate
import conicqp.solvers
from conicqp import InfeasibleError, QpStatus, StartMode
from conicqp.qp import BASIC


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1      # index of the enclosing span, -1 for a root
    solve: int = 0        # id shared by every span of one driver call
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._solve = 0

    @contextmanager
    def span(self, name: str, root: bool = False):
        if root:
            self._solve += 1
        idx = len(self.spans)
        sp = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1,
                  solve=self._solve)
        self.spans.append(sp)
        self._stack.append(idx)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _wrap_qp(self, fn):
        def solve_qp(problem, warm=None, mode=StartMode.PRIMAL_START, *args, **kwargs):
            with self.span("qp") as sp:
                sol = fn(problem, warm, mode, *args, **kwargs)
            if problem.sigma == 0:
                kind = "lp"
            elif warm is None:
                kind = "cold"
            else:
                kind = "dual" if mode == StartMode.DUAL_START else "warm"
            kinds = Counter(entry[0] for entry in sol.pivot_log)
            sp.attrs = {"kind": kind, "pivots": sol.iterations,
                        "kinds": dict(kinds), "phase1": sol.used_phase1,
                        "status": sol.status.value,
                        "free": int((sol.basis.status == BASIC).sum())}
            return sol
        return solve_qp

    def _wrap_node(self, fn):
        def solve_cd(inst, opt=None, warm=None):
            with self.span("bnb.node") as sp:
                sp.attrs = {"warm": warm is not None}
                try:
                    res = fn(inst, opt, warm=warm)
                except InfeasibleError as err:
                    sp.attrs["infeasible"] = True
                    sp.attrs["phase1"] = getattr(err, "first_qp_used_phase1", True)
                    raise
                sp.attrs["phase1"] = res.first_qp_used_phase1
                return res
        return solve_cd

    @contextmanager
    def installed(self):
        """Route the package's layer entry points through this tracer."""
        patches = [(conicqp.solvers, "solve_qp", self._wrap_qp),
                   (conicqp.bnb, "solve_cd", self._wrap_node)]
        patches += [(conicqp.solvers, f, lambda fn, f=f: self._wrap(fn, f"model.{f}"))
                    for f in ("kkt_residual", "dual_bound_estimate", "eval_objective")]
        patches += [(conicqp.generate, "generate",
                     lambda fn: self._wrap(fn, "generate.gen"))]
        patches += [(conicqp.generate, f, lambda fn: self._wrap(fn, "generate.io"))
                    for f in ("save_instance", "load_instance")]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, make in patches:
                setattr(mod, attr, make(getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


DRIVER_SPANS = ("solvers.cd", "solvers.bisect", "bnb")

PER_LAYER_UNITS = {
    "qp.lp.calls": "count", "qp.lp.s": "s", "qp.lp.pivots": "count",
    "qp.lp.phase1": "count", "qp.lp.share": "frac",
    "qp.warm.calls": "count", "qp.warm.s": "s", "qp.warm.pivots": "count",
    "qp.warm.zero_pivot_frac": "frac", "qp.warm.zero_pivot_s_p50": "s",
    "qp.warm.share": "frac",
    "qp.dual.calls": "count", "qp.dual.s": "s", "qp.dual.pivots": "count",
    "qp.dual.phase1": "count",
    "qp.pivots.block": "count", "qp.pivots.drop": "count",
    "qp.pivots.dfix": "count", "qp.s_per_pivot": "s",
    "qp.free_set_p50": "count", "qp.iter_limit": "count",
    "solvers.cd.qp_count": "count", "solvers.cd.self_s": "s",
    "solvers.bisect.qp_count": "count", "solvers.bisect.self_s": "s",
    "model.s": "s",
    "bnb.nodes": "count", "bnb.qp_per_node": "count", "bnb.node_s_p50": "s",
    "bnb.self_s": "s", "bnb.warm_accept_frac": "frac",
    "bnb.infeasible_nodes": "count",
    "generate.gen_s": "s", "generate.io_s": "s",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer figures; counts and times are per pass over the instance set.

    ``passes`` is the number of traced passes over the instance set; the
    ``generate.*`` figures cover the one traced set-up.  Shares divide a layer's
    busy time by the wall time of the driver calls.  ``solvers.*`` covers the
    convex drivers the benchmark calls; the ``solve_cd`` calls that
    branch-and-bound makes per node count under ``bnb.*``.
    """
    child_s = [0.0] * len(spans)
    root_of: dict[int, str] = {}
    for sp in spans:
        if sp.parent >= 0:
            child_s[sp.parent] += sp.dur
        elif sp.name in DRIVER_SPANS:
            root_of[sp.solve] = sp.name
    by_name: dict[str, list[int]] = {}
    for i, sp in enumerate(spans):
        by_name.setdefault(sp.name, []).append(i)

    def pick(name):
        return [spans[i] for i in by_name.get(name, [])]

    def self_s(name):
        return sum(spans[i].dur - child_s[i] for i in by_name.get(name, []))

    drivers_s = sum(sp.dur for name in DRIVER_SPANS for sp in pick(name))
    qps = pick("qp")
    per = 1.0 / passes
    out: dict[str, float] = {}
    for kind in ("lp", "warm", "dual"):
        group = [sp for sp in qps if sp.attrs["kind"] == kind]
        busy = sum(sp.dur for sp in group)
        out[f"qp.{kind}.calls"] = len(group) * per
        out[f"qp.{kind}.s"] = busy * per
        out[f"qp.{kind}.pivots"] = sum(sp.attrs["pivots"] for sp in group) * per
        if kind != "warm":
            out[f"qp.{kind}.phase1"] = sum(sp.attrs["phase1"] for sp in group) * per
        if kind != "dual":
            out[f"qp.{kind}.share"] = _ratio(busy, drivers_s)
        if kind == "warm":
            zero = [sp for sp in group if sp.attrs["pivots"] == 0]
            out["qp.warm.zero_pivot_frac"] = _ratio(len(zero), len(group))
            out["qp.warm.zero_pivot_s_p50"] = _median(sp.dur for sp in zero)
    kinds = Counter()
    for sp in qps:
        kinds.update(sp.attrs["kinds"])
    for kind in ("block", "drop", "dfix"):
        out[f"qp.pivots.{kind}"] = kinds[kind] * per
    out["qp.s_per_pivot"] = _ratio(sum(sp.dur for sp in qps),
                                   sum(sp.attrs["pivots"] for sp in qps))
    out["qp.free_set_p50"] = _median(sp.attrs["free"] for sp in qps)
    out["qp.iter_limit"] = sum(sp.attrs["status"] == QpStatus.ITER_LIMIT.value
                               for sp in qps) * per
    for drv in ("cd", "bisect"):
        out[f"solvers.{drv}.qp_count"] = sum(
            root_of.get(sp.solve) == f"solvers.{drv}" for sp in qps) * per
        out[f"solvers.{drv}.self_s"] = self_s(f"solvers.{drv}") * per
    out["model.s"] = sum(sp.dur for sp in spans if sp.name.startswith("model.")) * per
    nodes = pick("bnb.node")
    warm_nodes = [sp for sp in nodes if sp.attrs["warm"]]
    out["bnb.nodes"] = len(nodes) * per
    out["bnb.qp_per_node"] = _ratio(
        sum(root_of.get(sp.solve) == "bnb" for sp in qps), len(nodes))
    out["bnb.node_s_p50"] = _median(sp.dur for sp in nodes)
    out["bnb.self_s"] = self_s("bnb") * per
    out["bnb.warm_accept_frac"] = _ratio(
        sum(not sp.attrs["phase1"] for sp in warm_nodes), len(warm_nodes))
    out["bnb.infeasible_nodes"] = sum(
        sp.attrs.get("infeasible", False) for sp in nodes) * per
    out["generate.gen_s"] = sum(sp.dur for sp in pick("generate.gen"))
    out["generate.io_s"] = sum(sp.dur for sp in pick("generate.io"))
    return out


def qp_counts(spans: list[Span]) -> tuple[int, int]:
    """Number of QP spans among ``spans`` and the pivots they recorded."""
    qps = [sp for sp in spans if sp.name == "qp"]
    return len(qps), sum(sp.attrs["pivots"] for sp in qps)
