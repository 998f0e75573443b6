"""One benchmark run: set-up, warm-up, the timed or traced passes, the report.

``run.py`` sets the BLAS thread count and the import path before this module
loads numpy; see its docstring for what a run does and prints.
"""

from __future__ import annotations

import json
import statistics
import time
import traceback
from pathlib import Path

import conicqp.generate as G
from gate import bnb_faults, convex_faults, self_test
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics, qp_counts
from workloads import DRIVERS, WORKLOADS, oracle_values, timed_set_up

SETUP_REPEATS = 5
ROOT_SPAN = {"cd": "solvers.cd", "bisect": "solvers.bisect", "bnb": "bnb"}


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten samples beyond it.

    Never below the median: with fewer than 22 samples it is the middle
    sample (the upper one of an even count).  Returns the value and its
    percentile.
    """
    s = sorted(samples)
    k = max(len(s) - 11, len(s) // 2)
    return s[k], 100.0 * (k + 1) / len(s)


def more_passes(done: int, elapsed: float, seconds: float) -> bool:
    """Whether another pass brings the run closer to ``seconds`` long."""
    return elapsed + 0.5 * elapsed / done < seconds


class Bench:
    def __init__(self, args, env: dict, tmp: Path, root: Path):
        self.args, self.env, self.tmp, self.root = args, env, tmp, root
        self.work = WORKLOADS[args.workload]
        self.drivers = {d: DRIVERS[d] for d in self.work.drivers}
        self.tracer = Tracer() if args.trace else None
        self.attempted = self.failed = 0
        self.faults: list[str] = []

    # -- one timed driver call on a fresh copy of an instance --------------

    def solve(self, item, drv: str, traced: bool):
        inst = G.load_instance(item.path)
        fn = self.drivers[drv]
        first = len(self.tracer.spans) if traced else 0
        t0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.installed(), self.tracer.span(ROOT_SPAN[drv], root=True):
                    res = fn(inst)
            else:
                res = fn(inst)
        except Exception:
            res = None
            self.faults.append(f"{item.label} {drv}: raised\n{traceback.format_exc()}")
        dt = time.perf_counter() - t0
        return inst, res, dt, self.tracer.spans[first:] if traced else []

    def solve_item(self, item, traced: bool, oracles) -> dict:
        """Solve one instance with every driver of the workload and gate it.

        Returns {driver: (result, seconds, verified, spans of the call)}.
        """
        out = {d: self.solve(item, d, traced) for d in self.drivers}
        verdict = {}
        for drv, (inst, res, dt, spans) in out.items():
            if res is None:
                faults = ["raised"]
            elif drv == "bnb":
                faults = bnb_faults(res, oracles[item.label])
            else:
                other = out["bisect" if drv == "cd" else "cd"][1]
                faults = (convex_faults(inst, res, other) if other is not None
                          else ["other driver raised"])
            self.attempted += 1
            if faults:
                self.failed += 1
                self.faults.append(f"{item.label} {drv}: {'; '.join(faults)}")
            verdict[drv] = (res, dt, not faults, spans)
        return verdict

    # -- the run ---------------------------------------------------------

    def run(self) -> int:
        args, tr = self.args, self.tracer
        if tr is None:
            rounds, setup_times = timed_set_up(self.work, args.seed, self.tmp,
                                               SETUP_REPEATS)
        else:
            with tr.installed():
                rounds, setup_times = timed_set_up(self.work, args.seed, self.tmp, 1)
        order = [item for row in rounds for item in row]
        oracles = oracle_values(rounds)

        # untimed warm-up, whose result also exercises the gate's self-test
        first = order[0]
        drv0 = self.work.drivers[0]
        inst, res, _, _ = self.solve(first, drv0, False)
        problems = (["warm-up solve raised"] if res is None
                    else self_test(inst, res, oracles.get(first.label)))
        self.faults += [f"gate self-test: {p}" for p in problems]

        if tr is None:
            metrics, details = self.timed_loop(order, oracles, setup_times)
        else:
            metrics, details = self.traced_loop(order, oracles)
        correct = self.failed == 0 and not problems and not details.get("mismatches")
        self.report(metrics, details, correct)
        return 0

    def timed_loop(self, order, oracles, setup_times):
        samples = {d: [] for d in self.drivers}
        verified = 0
        start = time.perf_counter()
        passes = 0
        while True:
            for item in order:
                for drv, (res, dt, ok, _) in self.solve_item(item, False, oracles).items():
                    samples[drv].append(dt)
                    verified += ok
            passes += 1
            if not more_passes(passes, time.perf_counter() - start, self.args.seconds):
                break
        wall = time.perf_counter() - start
        pooled = [t for v in samples.values() for t in v]
        total = sum(pooled)
        tail_s, tail_pct = tail(pooled)
        metrics = {
            "solve_s_p50": (statistics.median(pooled), "s"),
            "solve_s_tail": (tail_s, "s"),
            "solves_per_s": (verified / total, "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        details = {"passes": passes, "instance_set": len(order),
                   "loop_wall_s": wall, "setup_runs_s": setup_times,
                   "solve_s_tail_percentile": tail_pct,
                   "solve_s_samples": len(pooled),
                   "failed_frac": self.failed / self.attempted}
        for drv, v in samples.items():
            t, pct = tail(v)
            details[f"{drv}_s_p50"] = statistics.median(v)
            details[f"{drv}_s_tail"] = t
            details[f"{drv}_s_tail_percentile"] = pct
            details[f"{drv}_s_samples"] = len(v)
        return metrics, details

    def traced_loop(self, order, oracles):
        tr = self.tracer
        plain_s = traced_s = 0.0
        mismatches = []
        passes = 0
        start = time.perf_counter()
        while True:
            for k, item in enumerate(order):
                # alternate which copy goes first so neither gets a warmer cache
                first_traced = k % 2 == 1
                runs = {}
                for traced in (first_traced, not first_traced):
                    runs[traced] = self.solve_item(item, traced, oracles)
                for drv in self.drivers:
                    plain, traced = runs[False][drv], runs[True][drv]
                    plain_s += plain[1]
                    traced_s += traced[1]
                    if plain[0] is None or traced[0] is None:
                        continue
                    seen = [_counts(plain[0]), _counts(traced[0])]
                    spanned = qp_counts(traced[3])
                    if seen[0] != seen[1] or spanned != seen[1][:2]:
                        mismatches.append(f"{item.label} {drv}: untraced {seen[0]}, "
                                          f"traced {seen[1]}, spans {spanned}")
            passes += 1
            if not more_passes(passes, time.perf_counter() - start, self.args.seconds):
                break
        metrics = {k: (v, PER_LAYER_UNITS[k])
                   for k, v in layer_metrics(tr.spans, passes).items()}
        metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "frac")
        out_dir = self.root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{self.work.name}-seed{self.args.seed}-spans.jsonl"
        tr.write(spans_path)
        details = {"passes": passes, "instance_set": len(order),
                   "untraced_s": plain_s, "traced_s": traced_s,
                   "trace_overhead_s": traced_s - plain_s,
                   "spans": len(tr.spans), "spans_file": str(spans_path.relative_to(self.root)),
                   "mismatches": mismatches,
                   "failed_frac": self.failed / self.attempted}
        return metrics, details

    def report(self, metrics, details, correct):
        a = self.args
        print(f"perfbench {a.workload} seed={a.seed} seconds={a.seconds:g} "
              f"trace={a.trace}: " + ", ".join(f"{k}={v}" for k, v in self.env.items()))
        for name, (value, unit) in metrics.items():
            print(f"  {name:28s} {value:.6g} {unit}")
        for name, value in details.items():
            if name in ("mismatches", "setup_runs_s"):
                continue
            unit = ("s" if name.endswith(("_s", "_p50", "_tail")) else
                    "%" if name.endswith("percentile") else
                    "frac" if name.endswith("frac") else "")
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"  {name:28s} {shown} {unit}".rstrip())
        for fault in self.faults + details.get("mismatches", []):
            print(f"  FAULT {fault}")
        print("details " + json.dumps({"env": self.env, **details}))
        print(json.dumps({
            "correct": bool(correct), "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))


def _counts(res) -> tuple:
    """QP count, pivot count and the finer count the driver exposes."""
    if hasattr(res, "nodes_processed"):
        return res.qp_count, res.pivot_count, res.nodes_processed
    return res.qp_count, res.pivot_count, tuple(res.qp_pivots)
