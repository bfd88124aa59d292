"""Smoke test of scripts/values_ab.py, the value-by-value A/B of the closed-form evaluators."""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import load_script

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def values_ab():
    yield load_script("values_ab")
    for name in [n for n in sys.modules if n.startswith(("susy_fisheye_parent", "susy_fisheye_change"))]:
        del sys.modules[name]


def test_the_same_tree_on_both_sides(values_ab, capsys, tmp_path, monkeypatch):
    # a short sweep in place of the fixed one of N radii
    monkeypatch.setattr(values_ab, "N", 40)
    out = tmp_path / "values.json"
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--json", str(out)]
    assert values_ab.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    # the exact index refuses V_fam >= 0 on both sides, and each side names its first refusal
    assert [line.split()[0] for line in lines[1:]] == [*values_ab.EVALUATORS, "index", "index",
                                                       "no"]
    table = json.loads(out.read_text())["evaluators"]
    for name, row in table.items():
        cases = values_ab._cases(name, values_ab.SECTORS)
        assert row["values"] == values_ab.sweep(40).size * len(cases)
        assert (row["changed"], row["worst_change"]) == (0, None)
        assert row["nonfinite_parent"] == row["nonfinite_change"]
        assert row["raised_parent"] == row["raised_change"]
    assert {name for name, row in table.items() if row["raised_change"]} == {"index"}
    # the non-finite values: I0 at the largest float, l = 0, kappa = 13.6,
    # past the 1e307 up to which I0 is stated finite away from kappa = 1;
    # and the first-order index past rho = 8.0e80, where V_M underflows, at
    # each kappa = 1 sector and lam
    past = np.count_nonzero(values_ab.sweep(40) > 8.0e80) * 4 * len(values_ab.LAMBDAS)
    assert {name: row["nonfinite_change"] for name, row in table.items()
            if row["nonfinite_change"]} == {"i0": 1, "n_iso": past, "ratio": past}


def test_a_perturbed_evaluator_is_measured_and_refused(values_ab):
    trees = {side: {module: values_ab.load(ROOT, side, module) for module in values_ab.MODULES}
             for side in values_ab.SIDES}
    core = trees["change"]["do_core"]
    perturbed = SimpleNamespace(**vars(core))
    perturbed.u_plus = lambda rho, l, kappa: core.u_plus(rho, l, kappa) * (1.0 + 1e-12)
    trees["change"]["do_core"] = perturbed
    table = values_ab.compare(trees, n=20, sectors=((1, 1.0),))
    row = table["u_plus"]
    assert row["changed"] > 0
    assert row["worst_parent"] < 1e-15 < 1e-13 < row["worst_change"] < 1e-11
    assert 0 < row["worse"] <= row["changed"]
    assert [reason.split(":")[0] for reason in values_ab.verdict(table)] == ["u_plus"] * 2


def test_more_non_finite_values_are_refused(values_ab):
    row = {"values": 10, "changed": 2, "nonfinite_parent": 0, "nonfinite_change": 1,
           "raised_parent": 1, "raised_change": 0, "warned_parent": 3, "warned_change": 0,
           "worse": 0, "worst_parent": 1e-16, "worst_change": 2e-16}
    assert values_ab.verdict({"v": row}) == ["v: 1 nonfinite values, 0 at the parent"]
    assert values_ab.verdict({"v": dict(row, nonfinite_change=0)}) == []


def test_a_value_that_got_worse_is_refused_past_an_infinite_parent_error(values_ab):
    # the parent's worst error is infinite at one radius; the change lost
    # digits at another, where the parent had them
    row = {"values": 10, "changed": 2, "nonfinite_parent": 1, "nonfinite_change": 0,
           "raised_parent": 0, "raised_change": 0, "worse": 1,
           "worst_parent": math.inf, "worst_change": 1.0}
    assert values_ab.verdict({"v": row}) == [
        "v: 1 values with an error more than 1e-14 above the parent's"]
