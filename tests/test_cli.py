"""Command-line interface: flows, exit codes, CSV schema."""

import csv
import json
import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import conicqp.qp
from conicqp import ConicInstance, Polyhedron, QuadraticForm, save_instance
from conicqp.cli import EXIT_INFEASIBLE, EXIT_LIMIT, EXIT_OK, EXIT_USAGE, main

from test_bad_inputs import bad_instance
from test_solvers import singular_instance


def write_simplex_instance(path, c=(0.0, 0.0), omega=1.0):
    q = QuadraticForm(F=np.zeros((2, 1)), sigma_factor=np.zeros((1, 1)),
                      D=np.ones(2))
    poly = Polyhedron(A=[[1.0, 1.0]], b=[1.0], lower=[0, 0], upper=[1, 1])
    inst = ConicInstance(c=np.array(c, dtype=float), omega=omega, q=q,
                         poly=poly)
    save_instance(inst, path)
    return path


class TestGen:
    def test_writes_rep_files(self, tmp_path):
        rc = main(["gen", "--family", "cardinality", "--n", "20", "--r", "4",
                   "--alpha", "0.1", "--omega", "2", "--seed", "7",
                   "--reps", "5", "--out", str(tmp_path / "d")])
        assert rc == EXIT_OK
        files = sorted((tmp_path / "d").glob("*.json"))
        assert len(files) == 5
        seeds = sorted(json.loads(f.read_text())["meta"]["seed"] for f in files)
        assert seeds == [7, 8, 9, 10, 11]

    def test_grid_dimensions(self, tmp_path):
        rc = main(["gen", "--family", "gridpath", "--grid", "4x4",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        f = next(tmp_path.glob("*.json"))
        assert json.loads(f.read_text())["n"] == 24

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "cardinality", "--n", "20"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_size_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "cardinality", "--out", "x"])
        assert exc.value.code == EXIT_USAGE

    def test_malformed_grid_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "gridpath", "--grid", "4by4",
                  "--out", str(tmp_path)])
        assert exc.value.code == EXIT_USAGE
        assert "grid must look like 4x4" in capsys.readouterr().err

    def test_gridpath_without_grid_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "gridpath", "--out", str(tmp_path)])
        assert exc.value.code == EXIT_USAGE
        assert "requires --grid" in capsys.readouterr().err


class TestSolve:
    def test_known_optimum(self, tmp_path, capsys):
        inst = write_simplex_instance(tmp_path / "s.json")
        rc = main(["solve", "--alg", "cd", "--instance", str(inst)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        obj = float(next(ln.split()[1] for ln in out.splitlines()
                         if ln.startswith("objective")))
        assert obj == pytest.approx(math.sqrt(0.5), abs=1e-6)

    def test_cd_and_bisect_agree(self, tmp_path, capsys):
        rc = main(["gen", "--family", "cardinality", "--n", "40", "--r", "5",
                   "--alpha", "0.3", "--omega", "2", "--seed", "3",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        capsys.readouterr()
        inst = str(next(tmp_path.glob("*.json")))

        def run(alg):
            assert main(["solve", "--alg", alg, "--instance", inst]) == EXIT_OK
            out = capsys.readouterr().out
            return float(next(ln.split()[1] for ln in out.splitlines()
                              if ln.startswith("objective")))

        a, b = run("cd"), run("bisect")
        assert a == pytest.approx(b, rel=1e-6)

    def test_optgap_trend_with_tolerance(self, tmp_path, capsys):
        main(["gen", "--family", "cardinality", "--n", "60", "--r", "8",
              "--alpha", "0.3", "--omega", "2", "--seed", "5",
              "--out", str(tmp_path)])
        capsys.readouterr()
        inst = str(next(tmp_path.glob("*.json")))
        assert main(["solve", "--instance", inst, "--tol", "1e-9"]) == EXIT_OK
        ref = float(next(ln.split()[1]
                         for ln in capsys.readouterr().out.splitlines()
                         if ln.startswith("objective")))

        def optgap(tol):
            assert main(["solve", "--instance", inst, "--tol", tol,
                         "--reference", repr(ref)]) == EXIT_OK
            out = capsys.readouterr().out
            return float(next(ln.split()[1] for ln in out.splitlines()
                              if ln.startswith("optgap")))

        gaps = [optgap(t) for t in ("1e-2", "1e-4", "1e-6")]
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))

    def test_infeasible_exit_code(self, tmp_path):
        q = QuadraticForm(F=np.zeros((2, 1)), sigma_factor=np.zeros((1, 1)),
                          D=np.ones(2))
        poly = Polyhedron(A=[[1.0, 1.0]], b=[10.0], lower=[0, 0], upper=[1, 1])
        inst = ConicInstance(c=np.zeros(2), omega=1.0, q=q, poly=poly)
        save_instance(inst, tmp_path / "inf.json")
        assert main(["solve", "--instance", str(tmp_path / "inf.json")]) \
            == EXIT_INFEASIBLE

    def test_unreadable_instance(self, tmp_path):
        assert main(["solve", "--instance", str(tmp_path / "nope.json")]) \
            == EXIT_USAGE

    def test_csv_row_schema(self, tmp_path, capsys):
        inst = write_simplex_instance(tmp_path / "s.json")
        out = tmp_path / "r.csv"
        assert main(["solve", "--instance", str(inst), "--csv",
                     str(out)]) == EXIT_OK
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["instance", "family", "n", "r", "alpha", "omega",
                           "method", "time_s", "qp_count", "pivot_count",
                           "nodes", "objective", "kkt_residual", "egap",
                           "solved"]
        assert len(rows) == 2

    @pytest.mark.parametrize("alg", ["cd", "bisect"])
    def test_singular_kkt_exit_code(self, tmp_path, capsys, alg):
        path = tmp_path / "singular.json"
        save_instance(singular_instance(), path)
        rc = main(["solve", "--alg", alg, "--instance", str(path)])
        assert rc == EXIT_LIMIT
        assert "QP not solved" in capsys.readouterr().err

    def test_unsolved_lp_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(conicqp.qp, "linprog", lambda *a, **k: OptimizeResult(
            status=1, message="Iteration limit reached.", x=None, nit=1))
        inst = write_simplex_instance(tmp_path / "s.json")
        assert main(["solve", "--instance", str(inst)]) == EXIT_LIMIT
        assert "LP not solved" in capsys.readouterr().err

    def test_uncertified_not_solved(self, tmp_path, capsys):
        path = tmp_path / "offset.json"
        save_instance(bad_instance(seed=4797, rows="card", pins=0,
                                   extra="none", d_scale=1e-10, costs="tied",
                                   omega=1e-6), path)
        rc = main(["solve", "--alg", "bisect", "--instance", str(path)])
        assert rc == EXIT_LIMIT
        assert "status        Uncertified" in capsys.readouterr().out


    def test_summary_counts_jumps(self, tmp_path, capsys):
        main(["gen", "--family", "cardinality", "--n", "40", "--r", "5",
              "--alpha", "0.3", "--omega", "2", "--seed", "3",
              "--out", str(tmp_path)])
        capsys.readouterr()
        path = next(tmp_path.glob("*.json"))
        assert main(["solve", "--alg", "cd", "--instance", str(path)]) == EXIT_OK
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("jumps"))
        from conicqp import load_instance, solve_cd

        res = solve_cd(load_instance(path))
        assert res.jumps_taken >= 1
        assert line.split()[1:] == [f"{res.jumps_taken}/{res.jumps_tried}",
                                    "(taken/tried)"]


class TestBnb:
    def test_solves_and_matches_oracle(self, tmp_path, capsys):
        main(["gen", "--family", "cardinality", "--n", "15", "--r", "5",
              "--alpha", "0.5", "--omega", "2", "--seed", "1", "--discrete",
              "--out", str(tmp_path)])
        capsys.readouterr()
        inst_path = next(tmp_path.glob("*.json"))
        assert main(["bnb", "--instance", str(inst_path)]) == EXIT_OK
        out = capsys.readouterr().out
        obj = float(next(ln.split()[1] for ln in out.splitlines()
                         if ln.startswith("objective")))
        from conicqp import enumeration_oracle, load_instance

        _, ref = enumeration_oracle(load_instance(inst_path))
        assert abs(obj - ref) <= 1e-4 * abs(ref)
        taken, tried = next(ln.split()[1] for ln in out.splitlines()
                            if ln.startswith("jumps")).split("/")
        assert 1 <= int(taken) <= int(tried)

    def test_forced_timeout(self, tmp_path, capsys):
        main(["gen", "--family", "cardinality", "--n", "15", "--r", "5",
              "--alpha", "0.5", "--omega", "3", "--seed", "2", "--discrete",
              "--out", str(tmp_path)])
        capsys.readouterr()
        inst = str(next(tmp_path.glob("*.json")))
        rc = main(["bnb", "--instance", inst, "--time-limit", "0.0"])
        out = capsys.readouterr().out
        assert rc == EXIT_LIMIT
        assert "solved        False" in out

    def test_root_integral_single_node(self, tmp_path, capsys):
        q = QuadraticForm(F=np.zeros((4, 1)), sigma_factor=np.zeros((1, 1)),
                          D=np.ones(4))
        poly = Polyhedron(A=np.ones((1, 4)), b=[1.0], lower=np.zeros(4),
                          upper=np.ones(4))
        inst = ConicInstance(c=np.array([-10.0, 0, 0, 0]), omega=0.5, q=q,
                             poly=poly, integer_vars=(0, 1, 2, 3))
        save_instance(inst, tmp_path / "ri.json")
        assert main(["bnb", "--instance", str(tmp_path / "ri.json")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "nodes         1" in out

    def test_infeasible_exit_code_and_csv(self, tmp_path, capsys):
        # two variables forced to 1 under a budget of 1: no integral point
        q = QuadraticForm(F=np.zeros((4, 1)), sigma_factor=np.zeros((1, 1)),
                          D=np.ones(4))
        poly = Polyhedron(A=np.ones((1, 4)), b=[1.0], lower=[1, 1, 0, 0],
                          upper=np.ones(4))
        inst = ConicInstance(c=np.zeros(4), omega=1.0, q=q, poly=poly,
                             integer_vars=(0, 1, 2, 3))
        save_instance(inst, tmp_path / "inf.json")
        out = tmp_path / "r.csv"
        rc = main(["bnb", "--instance", str(tmp_path / "inf.json"),
                   "--csv", str(out)])
        assert rc == EXIT_INFEASIBLE
        assert "solved        False" in capsys.readouterr().out
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["solved"] == "False"

    def test_uncertified_tree_not_solved(self, tmp_path, capsys,
                                         capped_dual_starts):
        main(["gen", "--family", "gridpath", "--grid", "4x4", "--r", "5",
              "--alpha", "0.5", "--omega", "2", "--seed", "4", "--discrete",
              "--out", str(tmp_path)])
        capsys.readouterr()
        inst = str(next(tmp_path.glob("*.json")))
        rc = main(["bnb", "--instance", inst])
        out = capsys.readouterr().out
        assert rc == EXIT_LIMIT
        assert "status        Uncertified" in out
        assert "solved        False" in out

    def test_non_discrete_rejected(self, tmp_path):
        inst = write_simplex_instance(tmp_path / "s.json")
        assert main(["bnb", "--instance", str(inst)]) == EXIT_USAGE

    def test_log_stride_prints_progress_lines(self, tmp_path, capsys):
        main(["gen", "--family", "cardinality", "--n", "15", "--r", "5",
              "--alpha", "0.5", "--omega", "3", "--seed", "2", "--discrete",
              "--out", str(tmp_path)])
        capsys.readouterr()
        inst = str(next(tmp_path.glob("*.json")))
        assert main(["bnb", "--instance", inst, "--log-stride", "2"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        nodes = int(next(ln.split()[1] for ln in lines
                         if ln.startswith("nodes ")))
        progress = [ln for ln in lines if ln.startswith("node=")]
        assert len(progress) == nodes // 2 >= 1
        for k, ln in enumerate(progress, start=1):
            fields = dict(part.split("=") for part in ln.split())
            assert list(fields) == ["node", "ub", "lb", "gap", "depth"]
            assert int(fields["node"]) == 2 * k
        assert lines.index(progress[-1]) < lines.index(
            next(ln for ln in lines if ln.startswith("objective")))


class TestBench:
    def test_group_means_and_rows(self, tmp_path, capsys):
        main(["gen", "--family", "cardinality", "--n", "20", "--r", "4",
              "--alpha", "0.1", "--omega", "2", "--seed", "0", "--reps", "5",
              "--out", str(tmp_path / "d")])
        out_csv = tmp_path / "bench.csv"
        rc = main(["bench", "--dir", str(tmp_path / "d"),
                   "--methods", "cd,bisect", "--csv", str(out_csv)])
        assert rc == EXIT_OK
        with out_csv.open() as fh:
            rows = list(csv.DictReader(fh))
        per_run = [r for r in rows if not r["instance"].startswith("mean")]
        means = [r for r in rows if r["instance"].startswith("mean")]
        assert len(per_run) == 10  # 5 seeds x 2 methods
        assert len(means) == 2     # one per (cell, method)
        assert means[0]["instance"] == "mean[5]"
        for mean_row in means:
            group = [r for r in per_run if r["method"] == mean_row["method"]]
            want = sum(float(r["objective"]) for r in group) / len(group)
            assert float(mean_row["objective"]) == pytest.approx(want, rel=1e-12)

    def test_typed_failure_writes_unsolved_row(self, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        save_instance(singular_instance(), tmp_path / "d" / "singular.json")
        out_csv = tmp_path / "bench.csv"
        rc = main(["bench", "--dir", str(tmp_path / "d"), "--methods", "cd",
                   "--csv", str(out_csv)])
        assert rc == EXIT_OK
        with out_csv.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["instance"] for r in rows] == ["singular.json", "mean[1]"]
        for r in rows:
            assert r["solved"] == "False"
            assert math.isnan(float(r["objective"]))

    def test_bnb_skipped_on_convex_instance(self, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        write_simplex_instance(tmp_path / "d" / "s.json")
        out_csv = tmp_path / "bench.csv"
        rc = main(["bench", "--dir", str(tmp_path / "d"), "--methods",
                   "cd,bnb-cd", "--csv", str(out_csv)])
        assert rc == EXIT_OK
        with out_csv.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["instance"], r["method"]) for r in rows] == [
            ("s.json", "cd"), ("mean[1]", "cd")]

    def test_empty_dir_is_usage_error(self, tmp_path):
        assert main(["bench", "--dir", str(tmp_path), "--csv",
                     str(tmp_path / "o.csv")]) == EXIT_USAGE

    def test_unknown_method_rejected(self, tmp_path):
        main(["gen", "--family", "cardinality", "--n", "20", "--out",
              str(tmp_path / "d")])
        assert main(["bench", "--dir", str(tmp_path / "d"), "--methods",
                     "annealing", "--csv", str(tmp_path / "o.csv")]) \
            == EXIT_USAGE
