"""``tests/outcomes.py compare`` reports how two runs' records differ, in
the terms a change is judged by, and exits 1 only on a lost certificate."""

import copy
import json

import pytest

import outcomes
from conicqp import solve_bnb, solve_cd
from conicqp.generate import GenSpec, gen_cardinality


def card(seed, discrete=False):
    return gen_cardinality(GenSpec(family="cardinality", n=10, r=3, alpha=0.5,
                                   omega=2.0, seed=seed, discrete=discrete))


@pytest.fixture(scope="module")
def old():
    return {"inputs": {"a": {"seed": 1}, "b": {"seed": 2}},
            "records": {
                "cd": {"a": outcomes.outcome(card(1), solve_cd),
                       "b": outcomes.outcome(card(2), solve_cd)},
                "bnb": {"a": outcomes.outcome(card(1, True), solve_bnb)}}}


def run(tmp_path, capsys, old, new):
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, doc in zip(paths, (old, new)):
        path.write_text(json.dumps(doc))
    code = outcomes.main(["compare", *map(str, paths)])
    return code, capsys.readouterr().out.splitlines()


def test_records_are_certified(old):
    assert old["records"]["cd"]["a"]["status"] == "Optimal"
    assert all(rec["certified"] for recs in old["records"].values()
               for rec in recs.values())


def test_same_records(tmp_path, capsys, old):
    code, lines = run(tmp_path, capsys, old, old)
    assert code == 0
    assert lines == [
        "cd: 0 lost, 0 gained, 0 changed", "  lost: ", "  gained: ",
        "  0 status changed", "  0 records differ: ",
        "  largest relative objective difference over 2 certified in both: 0",
        "bnb: 0 lost, 0 gained, 0 changed", "  lost: ", "  gained: ",
        "  0 status changed", "  0 records differ: ",
        "  largest relative objective difference over 1 certified in both: 0",
        "  0 trees changed"]


def test_each_difference_reported(tmp_path, capsys, old):
    new = copy.deepcopy(old)
    cd, tree = new["records"]["cd"], new["records"]["bnb"]["a"]
    z = float(cd["a"]["objective"])
    cd["a"]["objective"] = repr(z + 2e-12 * abs(z))
    cd["b"]["status"] = "ToleranceReached"  # still certified
    tree.update(status="TimeLimit", certified=False, nodes=tree["nodes"] + 1)
    code, lines = run(tmp_path, capsys, old, new)
    assert code == 1
    rel = lines[6].split(": ")[1].split()[0]
    assert float(rel) == pytest.approx(2e-12, rel=1e-2)
    assert lines == [
        "cd: 0 lost, 0 gained, 0 changed", "  lost: ", "  gained: ",
        "  1 status changed", "  b: Optimal -> ToleranceReached",
        "  2 records differ: a, b",
        f"  largest relative objective difference over 2 certified in both: "
        f"{rel} (a)",
        "bnb: 1 lost, 0 gained, 1 changed", "  lost: a", "  gained: ",
        "  a: certified -> TimeLimit",
        "  1 status changed", f"  a: {old['records']['bnb']['a']['status']}"
        " -> TimeLimit",
        "  1 records differ: a",
        "  largest relative objective difference over 0 certified in both: 0",
        "  1 trees changed",
        "  a: [{0}, {1!r}, {2!r}] -> [{3}, {1!r}, {2!r}]".format(
            old["records"]["bnb"]["a"]["nodes"], tree["incumbent"],
            tree["best_bound"], tree["nodes"])]


def test_gained_certificate_exits_0(tmp_path, capsys, old):
    new = copy.deepcopy(old)
    old = copy.deepcopy(old)
    old["records"]["cd"]["b"]["certified"] = False  # Optimal, say off Ax = b
    code, lines = run(tmp_path, capsys, old, new)
    assert code == 0
    assert lines[:7] == ["cd: 0 lost, 1 gained, 1 changed", "  lost: ",
                         "  gained: b",
                         "  b: solved without certificate -> certified",
                         "  0 status changed", "  1 records differ: b",
                         "  largest relative objective difference over 1 "
                         "certified in both: 0"]


def test_different_instance_sets_refused(tmp_path, capsys, old):
    new = copy.deepcopy(old)
    new["inputs"]["b"] = {"seed": 3}
    with pytest.raises(SystemExit, match="different instance sets"):
        run(tmp_path, capsys, old, new)
