"""Instance generators and the on-disk format."""

import json

import numpy as np
import pytest

from conicqp import load_instance, save_instance
from conicqp.generate import (
    GenSpec,
    gen_cardinality,
    gen_costs,
    gen_grid_path,
    gen_quadratic,
)


class TestGenQuadratic:
    def test_psd_by_eigendecomposition(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            q = gen_quadratic(40, 8, 0.3, rng)
            eigs = np.linalg.eigvalsh(q.dense())
            assert eigs.min() >= -1e-10

    def test_diag_entries_in_unit_interval(self):
        rng = np.random.default_rng(0)
        q = gen_quadratic(500, 5, 0.2, rng)
        assert np.all(q.D > 0.0) and np.all(q.D < 1.0)

    def test_sparsity_concentration(self):
        rng = np.random.default_rng(1)
        n, r, alpha = 400, 30, 0.25
        q = gen_quadratic(n, r, alpha, rng)
        frac = np.count_nonzero(q.F) / (n * r)
        band = 3.0 * np.sqrt(alpha * (1 - alpha) / (n * r))
        assert abs(frac - alpha) <= band


class TestGenCosts:
    def test_bounds(self):
        rng = np.random.default_rng(2)
        q = gen_quadratic(300, 10, 0.4, rng)
        c = gen_costs(q, rng)
        s = np.sqrt(q.diagonal())
        assert np.all(c <= 0.0)
        assert np.all(c >= -2.0 * s)

    def test_mean_ratio(self):
        rng = np.random.default_rng(3)
        q = gen_quadratic(1000, 10, 0.4, rng)
        c = gen_costs(q, rng)
        ratio = np.mean(c / np.sqrt(q.diagonal()))
        assert abs(ratio + 1.0) <= 0.1


class TestFamilies:
    def test_cardinality_shape(self):
        inst = gen_cardinality(GenSpec(family="cardinality", n=200, r=5,
                                       alpha=0.1, omega=1.0, seed=0))
        assert inst.poly.m == 1
        assert inst.poly.b[0] == 40.0

    def test_small_cardinality(self):
        inst = gen_cardinality(GenSpec(family="cardinality", n=5, r=2,
                                       alpha=0.5, omega=1.0, seed=1))
        assert inst.poly.b[0] == 1.0
        feas = np.full(5, 0.2)
        assert inst.poly.contains(feas)

    def test_grid_variable_count(self):
        inst = gen_grid_path(GenSpec(family="gridpath", p=30, q=30, r=5,
                                     alpha=0.1, omega=1.0, seed=0))
        assert inst.n == 1740
        assert inst.poly.m == 30 * 30 - 1

    def test_tiny_grid(self):
        inst = gen_grid_path(GenSpec(family="gridpath", p=2, q=2, r=2,
                                     alpha=0.5, omega=1.0, seed=0))
        assert inst.n == 4
        # top-right path is feasible and integral
        x = np.zeros(4)
        from conicqp.generate import grid_arcs

        arcs = grid_arcs(2, 2)
        x[arcs.index((0, 1))] = 1.0
        x[arcs.index((1, 3))] = 1.0
        assert inst.poly.contains(x)

    def test_discrete_flag(self):
        inst = gen_cardinality(GenSpec(family="cardinality", n=10, r=2,
                                       alpha=0.5, omega=1.0, seed=4,
                                       discrete=True))
        assert inst.integer_vars == tuple(range(10))

    def test_determinism(self):
        a = gen_cardinality(GenSpec(family="cardinality", n=30, r=4,
                                    alpha=0.3, omega=2.0, seed=77))
        b = gen_cardinality(GenSpec(family="cardinality", n=30, r=4,
                                    alpha=0.3, omega=2.0, seed=77))
        np.testing.assert_array_equal(a.c, b.c)
        np.testing.assert_array_equal(a.q.F, b.q.F)
        np.testing.assert_array_equal(a.q.D, b.q.D)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GenSpec(family="cardinality", n=3)
        with pytest.raises(ValueError):
            GenSpec(family="gridpath", p=1, q=4)
        with pytest.raises(ValueError):
            GenSpec(family="cardinality", n=10, alpha=1.5)
        with pytest.raises(ValueError):
            GenSpec(family="unknown", n=10)
        with pytest.raises(ValueError, match="rank"):
            GenSpec(family="cardinality", n=10, r=0)
        with pytest.raises(ValueError, match="omega"):
            GenSpec(family="cardinality", n=10, omega=0.0)

    def test_generator_refuses_the_other_family(self):
        with pytest.raises(ValueError, match="not a cardinality spec"):
            gen_cardinality(GenSpec(family="gridpath", p=3, q=3))
        with pytest.raises(ValueError, match="not a gridpath spec"):
            gen_grid_path(GenSpec(family="cardinality", n=10))


class TestFileFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        for spec in (
            GenSpec(family="cardinality", n=25, r=4, alpha=0.3, omega=2.0,
                    seed=5, discrete=True),
            GenSpec(family="gridpath", p=4, q=5, r=3, alpha=0.6, omega=1.5,
                    seed=9),
        ):
            inst = (gen_cardinality(spec) if spec.family == "cardinality"
                    else gen_grid_path(spec))
            path = tmp_path / "inst.json"
            save_instance(inst, path)
            back = load_instance(path)
            np.testing.assert_array_equal(back.c, inst.c)
            np.testing.assert_array_equal(back.q.F, inst.q.F)
            np.testing.assert_array_equal(back.q.sigma_factor,
                                          inst.q.sigma_factor)
            np.testing.assert_array_equal(back.q.D, inst.q.D)
            np.testing.assert_array_equal(back.poly.A, inst.poly.A)
            np.testing.assert_array_equal(back.poly.b, inst.poly.b)
            np.testing.assert_array_equal(back.poly.lower, inst.poly.lower)
            np.testing.assert_array_equal(back.poly.upper, inst.poly.upper)
            assert back.omega == inst.omega
            assert back.integer_vars == inst.integer_vars
            assert back.meta == inst.meta

    def test_bad_bounds_rejected(self, tmp_path):
        inst = gen_cardinality(GenSpec(family="cardinality", n=10, r=2,
                                       alpha=0.5, omega=1.0, seed=0))
        path = tmp_path / "bad.json"
        save_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["lower"][0] = 2.0  # above the upper bound of 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="lower"):
            load_instance(path)

    def test_nan_in_factor_rejected(self, tmp_path):
        # Python's JSON parser reads NaN, so the model must refuse it
        inst = gen_cardinality(GenSpec(family="cardinality", n=10, r=2,
                                       alpha=0.5, omega=1.0, seed=0))
        path = tmp_path / "nan.json"
        save_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["F"][3][1] = float("nan")
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        with pytest.raises(ValueError, match="instance file .*finite"):
            load_instance(path)

    @pytest.mark.parametrize("field, value, message", [
        ("A", [-1, 0, 1.0], "outside"),
        ("A", [0, -1, 1.0], "outside"),
        ("A", [1, 0, 1.0], "outside"),  # m = 1
        ("A", [0, 10, 1.0], "outside"),  # n = 10
        ("A", [0.7, 1.9, 1.0], "row index must be an integral number"),
        ("A", ["0", "2", "3"], "row index must be an integral number"),
        ("A", [0, True, 1.0], "column index must be an integral number"),
        ("A", [0, 0, "3"], "not a number"),
        ("integer_vars", [1.5], "integer variable must be an integral number"),
        ("n", 5.7, "n must be an integral number"),
        ("m", "1", "m must be an integral number"),
        ("n", True, "n must be an integral number"),
        ("n", 10.0, None),
        ("A", [0.0, 0.0, 1], None),
    ])
    def test_indices_must_be_integral_and_in_range(self, tmp_path, field,
                                                   value, message):
        # the first A entry is replaced, or the whole field
        inst = gen_cardinality(GenSpec(family="cardinality", n=10, r=2,
                                       alpha=0.5, omega=1.0, seed=0,
                                       discrete=True))
        path = tmp_path / "index.json"
        save_instance(inst, path)
        doc = json.loads(path.read_text())
        assert doc["A"][0][:2] == [0, 0] and doc["m"] == 1
        if field == "A":
            doc["A"][0] = value
        else:
            doc[field] = value
        path.write_text(json.dumps(doc))
        if message is None:  # an integral float passes
            back = load_instance(path)
            np.testing.assert_array_equal(back.poly.A, inst.poly.A)
            assert back.n == inst.n
            return
        with pytest.raises(ValueError, match=f"instance file .*{message}"):
            load_instance(path)

    def test_version_mismatch_rejected(self, tmp_path):
        inst = gen_cardinality(GenSpec(family="cardinality", n=10, r=2,
                                       alpha=0.5, omega=1.0, seed=0))
        path = tmp_path / "v.json"
        save_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_instance(path)

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1, "n": ')
        with pytest.raises(ValueError, match="line"):
            load_instance(path)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text('{"version": 1}')
        with pytest.raises(ValueError, match="missing field"):
            load_instance(path)
