"""Smoke test of scripts/dvr_grid_scan.py, the eigen-oracle's grid-size scan."""

from conftest import load_script

from susy_fisheye import numerics


def test_scan_picks_the_committed_grid_size(capsys, monkeypatch):
    scan = load_script("dvr_grid_scan")
    committed = numerics.DVR_POINTS
    monkeypatch.setattr(scan, "POINTS", range(101, committed + 1, 2))
    monkeypatch.setattr(scan, "ROUNDS", 1)
    scan.main([])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + len(scan.POINTS) + 1
    assert lines[-1] == f"smallest N meeting the budget: {committed}"
    assert numerics.DVR_POINTS == committed
