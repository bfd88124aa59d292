"""Smoke test of scripts/make_figures.py, the four index-family figures."""

from pathlib import Path

import pytest
from conftest import load_script

ROOT = Path(__file__).resolve().parents[1]

# (summary at the default grid, inflection, file stem); the inflection is
# found on the default grid whatever grid the figures are drawn on
SUMMARY = [
    ("l=1 lam=   1: peak |ratio| 0.2219 (lens only 0.0324)", "0.6624", "figure_l1_lambda1"),
    ("l=1 lam=  10: peak |ratio| 0.0249 (lens only 0.0035)", "0.5834", "figure_l1_lambda10"),
    ("l=2 lam=   1: peak |ratio| 0.0199 (lens only 0.0044)", "0.5855", "figure_l2_lambda1"),
    ("l=2 lam=  10: peak |ratio| 0.0021 (lens only 0.0004)", "0.5781", "figure_l2_lambda10"),
]


def tail(star, stem):
    return f"inflection at rho = {star}, wrote {stem}.csv/.svg"


@pytest.fixture(scope="module")
def script():
    return load_script("make_figures")


def test_default_figures_match_the_goldens(script, tmp_path, capsys):
    script.main(["--outdir", str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        f"{head}, {tail(star, stem)}" for head, star, stem in SUMMARY
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{stem}.{ext}" for _, _, stem in SUMMARY for ext in ("csv", "svg")
    )
    for golden in ("figure_l1_lambda1.csv", "figure_l2_lambda10.csv"):
        assert (tmp_path / golden).read_bytes() == (ROOT / "tests" / "golden" / golden).read_bytes()


@pytest.mark.parametrize("argv", [["--rho-max", "5"], ["--samples", "120"]])
def test_other_grids_keep_the_inflection(script, tmp_path, capsys, argv):
    # find_inflection needs 100 points inside (0, 1]; these grids have fewer
    script.main(["--outdir", str(tmp_path), *argv])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(SUMMARY)
    assert all(line.endswith(tail(star, stem)) for line, (_, star, stem) in zip(lines, SUMMARY))
    assert len(list(tmp_path.iterdir())) == 8
