"""Smoke test of scripts/verify_ab.py, the interleaved A/B timing of verify."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from susy_fisheye import verify

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def verify_ab():
    spec = importlib.util.spec_from_file_location("verify_ab", ROOT / "scripts" / "verify_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
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


def test_differing_results_are_refused(verify_ab):
    def fake(residual):
        def check_one():
            return verify.CheckResult("one", residual, 1.0, True)

        return SimpleNamespace(SUITES={"s": (check_one,)}, run_suite=lambda name: [check_one()],
                               check_one=check_one)

    with pytest.raises(verify_ab.ResultsDiffer, match="suite: results differ"):
        verify_ab.compare({"parent": fake(0.5), "change": fake(0.25)}, rounds=1)
