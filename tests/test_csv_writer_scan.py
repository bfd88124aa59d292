"""Smoke test of scripts/csv_writer_scan.py, the timing of the CSV, JSON and SVG writers."""

from conftest import load_script


def test_scan_times_both_writers(capsys):
    scan = load_script("csv_writer_scan")
    assert scan.table(250).shape == (50, 5) and scan.table(4096).shape == (1024, 4)
    assert scan.canvas(250).shape == (250,) and scan.canvas(99).shape == (98,)
    scan.main(["--sizes", "4096", "250", "--rounds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 * (1 + 2)
    for fmt, block in zip(("csv", "json", "svg"), (lines[:3], lines[3:6], lines[6:])):
        assert all(line.split()[0] == fmt for line in block)
        assert [line.split()[1] for line in block[1:]] == ["250", "4096"]
        assert all(float(x) > 0 for line in block[1:] for x in line.split()[2:5])
