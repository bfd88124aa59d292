"""Smoke test of scripts/well_translation_scan.py, the single-state well family scan."""

from conftest import load_script

from susy_fisheye.fullline import rescale_radius, rm_family_shift


def test_scan_keeps_the_single_bound_state(capsys):
    scan = load_script("well_translation_scan")
    scan.main(["--lambda0", "0.01", "1", "1000"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["lambda0", "well", "center", "bound", "state", "R_lam/R"]
    assert [row.split()[0] for row in rows] == ["0.01", "1", "1000"]
    for row, lam0 in zip(rows, (0.01, 1.0, 1000.0)):
        _, center, state, radius = row.split()
        assert center == f"{-rm_family_shift(lam0):.5f}"
        assert abs(float(state) + 1.0) < 2e-8
        assert radius == f"{rescale_radius(1.0, lam0):.6f}"
