"""Smoke test of scripts/dvr_grid_scan.py, the eigen-oracle's grid-size scan."""

import importlib.util
from pathlib import Path

from susy_fisheye import numerics

ROOT = Path(__file__).resolve().parents[1]


def test_scan_picks_the_committed_grid_size(capsys):
    spec = importlib.util.spec_from_file_location(
        "dvr_grid_scan", ROOT / "scripts" / "dvr_grid_scan.py"
    )
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    committed = numerics.DVR_POINTS
    points = [str(n) for n in range(101, committed + 1, 2)]
    scan.main(["--points", *points, "--rounds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + len(points) + 1
    assert lines[-1] == f"smallest N meeting the budget: {committed}"
    assert numerics.DVR_POINTS == committed
