"""Smoke test of scripts/zero_mode_step_scan.py, the zero-mode march's step scan."""

from conftest import load_script

from susy_fisheye import numerics, verify


def test_scan_names_the_committed_constants(capsys, monkeypatch):
    scan = load_script("zero_mode_step_scan")
    committed = verify.ZERO_MODE_START, verify.ZERO_MODE_STEP
    march = numerics.numerov_zero_energy
    monkeypatch.setattr(scan, "ROUNDS", 1)
    scan.main([])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 4 * 5 + 1
    assert lines[-1] == (
        f"cheapest pair meeting the rule: rho0 = {committed[0]:g}, h = {committed[1]:g}"
    )
    assert (verify.ZERO_MODE_START, verify.ZERO_MODE_STEP) == committed
    assert numerics.numerov_zero_energy is march
