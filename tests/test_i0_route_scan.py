"""Smoke test of scripts/i0_route_scan.py, the scan of the two beta routes of i0."""

from conftest import load_script

from susy_fisheye import isospectral


def test_scan_reports_route_terms_and_error(capsys, monkeypatch):
    scan = load_script("i0_route_scan")
    saved = (isospectral._horner, isospectral._MAX_CANCELLATION,
             isospectral._MAX_CANCELLATION_SMALL_KAPPA)
    monkeypatch.setattr(scan, "KAPPAS", ("1/2", "0.7"))
    monkeypatch.setattr(scan, "LS", (0, 1, 5))
    monkeypatch.setattr(scan, "SIZES", (20,))
    monkeypatch.setattr(scan, "ROUNDS", 1)
    scan.main([])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 6 + 3 + 3 + 1
    rows = [line.split() for line in lines[2:8]]
    # kappa, l, b, route, terms, us, error
    assert [(row[0], row[1], row[3], row[4]) for row in rows] == [
        ("1/2", "0", "series", "49"),
        ("1/2", "1", "sum", "1"),
        ("1/2", "5", "sum", "9"),
        ("0.7", "0", "series", "49"),
        ("0.7", "1", "series", "68"),
        ("0.7", "5", "series", "80"),
    ]
    assert all(float(row[6]) < 1e-13 for row in rows)
    # the kappa = 1/2 rows time the series too
    assert all("series:" in line for line in lines[3:5])
    # the complement's bound below kappa = 1/4: 1e3 leaves sectors past
    # 1e-12 there, 10 none, and 10 would move the kappa = 0.7 switch
    assert lines[8].startswith("cancellation bound 1000: below kappa = 1/4, ")
    assert " 0 of " not in lines[8] and lines[8].endswith("0 switches move")
    assert lines[10].startswith("cancellation bound 10: below kappa = 1/4, 0 of ")
    assert lines[10].endswith("1 switches move; kappa 0.7 l 1: 68 -> 118")
    # the kappa = 1 closed form against the series out to 1e300, one line per l
    far = [line.split() for line in lines[11:14]]
    assert [row[5] for row in far] == ["0:", "1:", "5:"]
    assert all(line.endswith("of logspace(1, 1e300, 4000)") for line in lines[11:14])
    assert all(float(row[8]) < 1e-14 for row in far)
    assert lines[-1].startswith("terminating sum faster than the series at every size up to b = ")
    assert (isospectral._horner, isospectral._MAX_CANCELLATION,
            isospectral._MAX_CANCELLATION_SMALL_KAPPA) == saved
