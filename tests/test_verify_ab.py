"""Smoke test of scripts/verify_ab.py, the interleaved A/B timing of verify."""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import load_script

from susy_fisheye import verify

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def verify_ab():
    yield load_script("verify_ab")
    for name in [n for n in sys.modules if n.startswith(("susy_fisheye_parent", "susy_fisheye_change"))]:
        del sys.modules[name]


def test_one_round_against_the_same_tree(verify_ab, capsys, tmp_path):
    out = tmp_path / "ab.json"
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--rounds", "1", "--json", str(out)]
    assert verify_ab.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = [fn.__name__ for suite in verify.SUITES.values() for fn in suite]
    assert [line.split()[0] for line in lines[2:]] == ["suite"] + checks
    assert all(line.endswith("/1") for line in lines[2:])
    assert '"change_faster_rounds"' in out.read_text()


def _fake_verify(residual, detail=""):
    def check_one():
        return verify.CheckResult("one", residual, 1.0, True, detail)

    return SimpleNamespace(SUITES={"s": (check_one,)}, run_suite=lambda name: [check_one()],
                           check_one=check_one)


def test_differing_results_are_refused(verify_ab):
    # a larger residual, a NaN one, and a changed detail
    for parent, change in [((0.25,), (0.5,)), ((0.25,), (math.nan,)), ((0.5, "a"), (0.5, "b"))]:
        fakes = {"parent": _fake_verify(*parent), "change": _fake_verify(*change)}
        with pytest.raises(verify_ab.ResultsDiffer, match="suite: results differ"):
            verify_ab.compare(fakes, rounds=1)


def test_better_residual_is_accepted_and_reported(verify_ab, capsys):
    table = verify_ab.compare({"parent": _fake_verify(0.5), "change": _fake_verify(0.25)}, rounds=1)
    assert table["residuals"] == {"one": [0.5, 0.25]}
    verify_ab._report(table, 1)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["names, pass/fail and details the same on both sides; 1 residuals fell",
                         "  one: 0.5 -> 0.25"]
