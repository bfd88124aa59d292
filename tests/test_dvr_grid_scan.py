"""Smoke test of scripts/dvr_grid_scan.py, the eigen-oracle's grid-size scan."""

from conftest import load_script

from susy_fisheye import numerics


def test_scan_picks_the_committed_grid_size(capsys):
    scan = load_script("dvr_grid_scan")
    committed = numerics.DVR_POINTS
    points = [str(n) for n in range(101, committed + 1, 2)]
    scan.main(["--points", *points, "--rounds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + len(points) + 1
    assert lines[-1] == f"smallest N meeting the budget: {committed}"
    assert numerics.DVR_POINTS == committed
