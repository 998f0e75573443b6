"""Command-line front end: generate instances, run solvers, benchmark.

Subcommands: ``gen`` writes instance files, ``solve`` runs a convex driver
on one instance, ``bnb`` runs branch-and-bound on a discrete instance, and
``bench`` sweeps a directory with one or more methods and writes a CSV with
per-run rows plus per-cell means.  Exit codes: 0 solved/success, 2 usage
error, 3 infeasible, 4 iteration/time limit reached.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

from .bnb import BnbOptions, BnbStatus, solve_bnb
from .generate import GenSpec, generate, load_instance, save_instance
from .model import InfeasibleError, LpFailureError, SolveStatus
from .solvers import BisectOptions, CdOptions, solve_bisection, solve_cd

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_LIMIT = 4


@dataclass
class BenchRecord:
    """One CSV row; the field order here is the (stable) header order."""

    instance: str
    family: str
    n: int
    r: int
    alpha: float
    omega: float
    method: str
    time_s: float
    qp_count: int
    pivot_count: int
    nodes: int
    objective: float
    kkt_residual: float
    egap: float
    solved: bool

    @classmethod
    def header(cls) -> list[str]:
        return [f.name for f in fields(cls)]

    def row(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]


def _write_csv(path: str, records: list[BenchRecord]):
    new = not Path(path).exists()
    with open(path, "a", newline="") as fh:
        w = csv.writer(fh)
        if new:
            w.writerow(BenchRecord.header())
        for rec in records:
            w.writerow(rec.row())


_METHODS = {"cd": solve_cd, "bisect": solve_bisection, "bnb-cd": solve_bnb}
_SOLVED = (SolveStatus.OPTIMAL, SolveStatus.TOLERANCE_REACHED,
           SolveStatus.T_ZERO, BnbStatus.OPTIMAL, BnbStatus.GAP_REACHED)


def _record(inst, path, method: str, time_s: float, res=None) -> BenchRecord:
    """The CSV row of one run; ``res`` is None for a run that raised."""
    meta = inst.meta or {}
    if res is None:
        run = dict(qp_count=0, pivot_count=0, nodes=0, objective=math.nan,
                   kkt_residual=math.nan, egap=math.inf, solved=False)
    elif method == "bnb-cd":
        run = dict(qp_count=res.qp_count, pivot_count=res.pivot_count,
                   nodes=res.nodes_processed, objective=res.incumbent_obj,
                   kkt_residual=math.nan, egap=100.0 * res.egap,
                   solved=res.status in _SOLVED)
    else:
        run = dict(qp_count=res.qp_count, pivot_count=res.pivot_count, nodes=0,
                   objective=res.objective,
                   kkt_residual=(res.kkt.residual_inf if res.kkt is not None
                                 else math.nan),
                   egap=0.0, solved=res.status in _SOLVED)
    return BenchRecord(
        instance=Path(path).name, family=meta.get("family", "custom"),
        n=inst.n, r=int(meta.get("r", inst.q.r)),
        alpha=float(meta.get("alpha", math.nan)), omega=inst.omega,
        method=method, time_s=time_s, **run)


def _run(inst, path, method: str, opts=None) -> tuple[object, BenchRecord]:
    """Run one method (a key of ``_METHODS``); return its result and record."""
    start = time.perf_counter()
    res = _METHODS[method](inst, opts)
    return res, _record(inst, path, method, time.perf_counter() - start, res)


def cmd_gen(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for k in range(args.reps):
        seed = args.seed + k
        if args.family == "cardinality":
            spec = GenSpec(family="cardinality", n=args.n, r=args.r,
                           alpha=args.alpha, omega=args.omega, seed=seed,
                           discrete=args.discrete)
            name = f"cardinality_n{args.n}"
        else:
            p, q = args.grid
            spec = GenSpec(family="gridpath", p=p, q=q, r=args.r,
                           alpha=args.alpha, omega=args.omega, seed=seed,
                           discrete=args.discrete)
            name = f"gridpath_{p}x{q}"
        inst = generate(spec)
        fname = (f"{name}_r{args.r}_a{args.alpha:g}_w{args.omega:g}"
                 f"_s{seed}{'_disc' if args.discrete else ''}.json")
        save_instance(inst, out / fname)
        print(out / fname)
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    t0_opt = None if args.t0 == "lp" else float(args.t0)
    eps = min(1e-9, 0.1 * args.tol)
    if args.alg == "cd":
        opts = CdOptions(t0=t0_opt, delta=args.tol, qp_eps=eps)
    else:
        opts = BisectOptions(delta=args.tol, qp_eps=eps)
    try:
        res, rec = _run(inst, args.instance, args.alg, opts)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"objective     {res.objective:.12g}")
    print(f"t             {res.t:.12g}")
    print(f"kkt_residual  {rec.kkt_residual:.3e}")
    print(f"qp_count      {res.qp_count}")
    print(f"pivot_count   {res.pivot_count}")
    print(f"time_s        {rec.time_s:.4f}")
    print(f"status        {res.status.value} ({res.stop_reason})")
    if args.reference is not None:
        optgap = abs((args.reference - res.objective) / args.reference)
        print(f"optgap        {optgap:.3e}")
    if args.csv:
        _write_csv(args.csv, [rec])
    return EXIT_OK if rec.solved else EXIT_LIMIT


def cmd_bnb(args) -> int:
    inst = load_instance(args.instance)
    if not inst.integer_vars:
        print("error: instance has no integer variables", file=sys.stderr)
        return EXIT_USAGE
    opts = BnbOptions(gap_tol=args.gap, time_limit=args.time_limit,
                      node_limit=args.node_limit, log_stride=args.log_stride)
    res, rec = _run(inst, args.instance, "bnb-cd", opts)
    print(f"objective     {res.incumbent_obj:.12g}")
    print(f"best_bound    {res.best_bound:.12g}")
    print(f"nodes         {res.nodes_processed}")
    print(f"egap_pct      {rec.egap:.4g}")
    print(f"qp_count      {res.qp_count}")
    print(f"pivot_count   {res.pivot_count}")
    print(f"warm_accepts  {res.warm_accepts}")
    print(f"warm_repairs  {res.warm_repairs}")
    print(f"uncertified   {res.uncertified_nodes}")
    print(f"time_s        {rec.time_s:.4f}")
    print(f"status        {res.status.value}")
    print(f"solved        {rec.solved}")
    if args.csv:
        _write_csv(args.csv, [rec])
    if res.status == BnbStatus.INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_OK if rec.solved else EXIT_LIMIT


def _bench_one(inst, path, method: str) -> BenchRecord | None:
    if method == "bnb-cd" and not inst.integer_vars:
        return None
    start = time.perf_counter()
    try:
        return _run(inst, path, method)[1]
    except (InfeasibleError, LpFailureError):
        return _record(inst, path, method, time.perf_counter() - start)


def cmd_bench(args) -> int:
    paths = sorted(Path(args.dir).glob("*.json"))
    if not paths:
        print(f"error: no instance files in {args.dir}", file=sys.stderr)
        return EXIT_USAGE
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in _METHODS:
            print(f"error: unknown method {m!r}", file=sys.stderr)
            return EXIT_USAGE
    records: list[BenchRecord] = []
    for path in paths:
        inst = load_instance(path)
        for method in methods:
            rec = _bench_one(inst, path, method)
            if rec is not None:
                records.append(rec)
                print(f"{rec.instance} {rec.method}: obj={rec.objective:.9g} "
                      f"time={rec.time_s:.3f}s solved={rec.solved}")
    # per-cell means over the numeric columns, one row per (cell, method)
    groups: dict[tuple, list[BenchRecord]] = {}
    for rec in records:
        groups.setdefault(
            (rec.family, rec.n, rec.r, rec.alpha, rec.omega, rec.method), []
        ).append(rec)
    means = []
    for key in sorted(groups, key=str):
        rows = groups[key]
        k = len(rows)
        means.append(BenchRecord(
            instance=f"mean[{k}]", family=key[0], n=key[1], r=key[2],
            alpha=key[3], omega=key[4], method=key[5],
            time_s=sum(r.time_s for r in rows) / k,
            qp_count=round(sum(r.qp_count for r in rows) / k),
            pivot_count=round(sum(r.pivot_count for r in rows) / k),
            nodes=round(sum(r.nodes for r in rows) / k),
            objective=sum(r.objective for r in rows) / k,
            kkt_residual=max(r.kkt_residual for r in rows),
            egap=sum(r.egap for r in rows) / k,
            solved=all(r.solved for r in rows),
        ))
    _write_csv(args.csv, records + means)
    print(f"wrote {len(records)} rows + {len(means)} mean rows to {args.csv}")
    return EXIT_OK


def _grid_dims(text: str) -> tuple[int, int]:
    try:
        p, q = text.lower().split("x")
        return int(p), int(q)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("grid must look like 4x4") from exc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conicqp",
        description="Simplex-style QP algorithms for conic quadratic "
                    "minimization over polyhedra.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate synthetic instance files")
    g.add_argument("--family", choices=["cardinality", "gridpath"],
                   required=True)
    g.add_argument("--n", type=int, help="cardinality instance size")
    g.add_argument("--grid", type=_grid_dims, help="grid dims, e.g. 4x4")
    g.add_argument("--r", type=int, default=5)
    g.add_argument("--alpha", type=float, default=0.1)
    g.add_argument("--omega", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--reps", type=int, default=1)
    g.add_argument("--out", required=True)
    g.add_argument("--discrete", action="store_true")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve one convex instance")
    s.add_argument("--alg", choices=["cd", "bisect"], default="cd")
    s.add_argument("--tol", type=float, default=1e-5)
    s.add_argument("--instance", required=True)
    s.add_argument("--t0", default="lp", help="initial t, or 'lp'")
    s.add_argument("--csv")
    s.add_argument("--reference", type=float,
                   help="reference objective for optgap")
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bnb", help="branch-and-bound on a discrete instance")
    b.add_argument("--instance", required=True)
    b.add_argument("--gap", type=float, default=1e-4)
    b.add_argument("--time-limit", type=float, default=None)
    b.add_argument("--node-limit", type=int, default=None)
    b.add_argument("--log-stride", type=int, default=0)
    b.add_argument("--csv")
    b.set_defaults(func=cmd_bnb)

    be = sub.add_parser("bench", help="run methods over an instance directory")
    be.add_argument("--dir", required=True)
    be.add_argument("--methods", default="cd,bisect")
    be.add_argument("--csv", required=True)
    be.set_defaults(func=cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "gen":
        if args.family == "cardinality" and args.n is None:
            ap.error("--family cardinality requires --n")
        if args.family == "gridpath" and args.grid is None:
            ap.error("--family gridpath requires --grid PxQ")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LpFailureError as exc:
        print(f"LP not solved: {exc}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
