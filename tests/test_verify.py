"""The batched verify checks against per-parameter-set reference loops.

verify stacks each check's parameter sets on one (cases, radii) grid and
makes one Richardson call per derived quantity.  The loops here make one
call per parameter set, the way the checks were first written; the
residuals must agree bit for bit, so they are compared with ==.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from test_acceptance import RICCATI_RADII

from susy_fisheye import fisheye, isospectral, numerics, specfun, verify
from susy_fisheye.do_core import (
    DoParams,
    radial_factor_f,
    superpotential_w,
    u_minus,
    u_plus,
)
from susy_fisheye.isospectral import _family_values, family_columns
from susy_fisheye.numerics import derivative

FAMILIES = [
    (kappa, l, lam) for kappa in (0.5, 1.0) for l in (0, 1, 2) for lam in (0.5, 1.0, 10.0)
]


def general(s, l, kappa, lam):
    """(V_gen, W_gen) = ((I0+lam)/f^2, W + f^2/(I0+lam)) from one _family_values call."""
    f, denom = _family_values(s, l, kappa, lam)
    f2 = f**2
    return denom / f2, superpotential_w(s, l, kappa) + f2 / denom


def riccati_loop(radii):
    worst_abs = worst_rel = worst_partner = 0.0
    for kappa, l, lam in FAMILIES:
        r = radii
        v, wg = general(r, l, kappa, lam)
        dv = derivative(lambda s: general(s, l, kappa, lam)[0], r, h0=0.25 * r)
        res = np.abs(-dv + 2.0 * superpotential_w(r, l, kappa) * v + 1.0)
        worst_abs = max(worst_abs, float(np.max(res)))
        worst_rel = max(worst_rel, float(np.max(res / np.maximum(1.0, np.abs(dv)))))
        dwg = derivative(lambda s: general(s, l, kappa, lam)[1], r, h0=0.25 * r)
        dw = derivative(lambda s: superpotential_w(s, l, kappa), r, h0=0.25 * r)
        up_general = dwg + wg**2
        up_particular = dw + superpotential_w(r, l, kappa) ** 2
        worst_partner = max(worst_partner, float(np.max(np.abs(up_general - up_particular))))
    return worst_abs, worst_rel, worst_partner


def log_derivative_loop():
    worst = 0.0
    r = np.linspace(0.05, 20.0, 50)
    for kappa in (0.5, 1.0):
        for l in (0, 1, 2, 3):
            fd = derivative(lambda s: radial_factor_f(s, l, kappa), r, h0=0.2 * r)
            gap = superpotential_w(r, l, kappa) + fd / radial_factor_f(r, l, kappa)
            worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def partner_sum_difference_loop():
    worst = 0.0
    r = np.linspace(0.1, 10.0, 30)
    for kappa in (0.5, 1.0):
        for l in (0, 1, 2):
            dw = derivative(lambda s: superpotential_w(s, l, kappa), r, h0=0.2 * r)
            gap = u_plus(r, l, kappa) - u_minus(r, l, kappa) - 2.0 * dw
            worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def langer_loop():
    worst = 0.0
    xs = np.linspace(-4.0, 4.0, 41)
    for n in (1, 2, 3):
        l, nu = n - 1, n - 0.5

        def phi(x):
            return np.exp(-0.5 * x) * radial_factor_f(np.exp(x), l, 1.0)

        d2 = derivative(phi, xs, order=2, h0=0.05)
        res = -d2 + (nu**2 - nu * (nu + 1.0) / np.cosh(xs) ** 2) * phi(xs)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def gegenbauer_recurrence_loop():
    worst = 0.0
    for q in (0.5, 1.5, 2.5):
        for xi in (-1.0, -0.5, 0.0, 0.5, 1.0):
            vals = [specfun.gegenbauer(p, q, xi) for p in range(12)]
            for p in range(1, 11):
                lhs = (p + 1) * vals[p + 1]
                rhs = 2 * (p + q) * xi * vals[p] - (p + 2 * q - 1) * vals[p - 1]
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    return worst


def gegenbauer_parity_loop():
    worst = 0.0
    for p in range(9):
        for q in (0.5, 1.5, 2.5):
            for xi in (0.1, 0.35, 0.8):
                a = specfun.gegenbauer(p, q, xi)
                b = specfun.gegenbauer(p, q, -xi)
                worst = max(worst, abs(b - (-1.0) ** p * a))
    return worst


def zero_mode_family_loop():
    # one march per (l, lam), on the public family columns, of
    # phi = rho^(-1/2) u in the Langer variable x = ln rho
    worst = 0.0
    x, rho = verify._langer_grid()
    sel = (rho >= 0.1) & (rho <= 5.0)
    for l in (0, 1, 2):
        for lam in (1.0, 10.0):
            _, u_bos, _, f_bos = family_columns(rho, DoParams.nodeless(1.0, l, lam))
            phi0, phi1 = (verify._frobenius_seed(r, l, 1.0) / math.sqrt(r) for r in rho[:2])
            phi = numerics.numerov_zero_energy(lambda _: 0.25 + rho**2 * u_bos, x, phi0, phi1)
            u = np.sqrt(rho[sel]) * phi[sel]
            f = f_bos[sel]
            scale = np.dot(u, f) / np.dot(u, u)
            case = float(np.max(np.abs(scale * u - f) / np.abs(f)))
            assert verify._zero_mode_residual(l, 1.0, lam) == case
            worst = max(worst, case)
    return worst


def closed_vs_quadrature_loop():
    # one oracle call per (kappa, l) sector
    rhos = np.logspace(np.log10(0.01), np.log10(50.0), 50)
    worst = 0.0
    for kappa in (1.0, 0.5):
        for l in range(6):
            gap = isospectral.i0(rhos, l, kappa) - isospectral.i0_quadrature(rhos, l, kappa)
            worst = max(worst, float(np.max(np.abs(gap))))
    return worst, ""


def percent_bound_loop():
    # one public index_columns call per (l, lam)
    grid = np.linspace(0.01, 3.0, 300)
    worst = 0.0
    details = []
    for l in (1, 2):
        for lam in (1.0, 10.0):
            peak = float(np.max(np.abs(fisheye.index_columns(grid, l, lam)[2])))
            details.append(f"l={l},lam={lam}: {peak:.4f}")
            worst = max(worst, peak)
    return worst, "; ".join(details) + " (known to exceed 0.10 at l=1, lam=1 near rho=3)"


def ratio_damping_loop():
    grid = np.linspace(0.01, 3.0, 300)
    ok = True
    for lam in (1.0, 10.0):
        p1 = float(np.max(np.abs(fisheye.index_columns(grid, 1, lam)[2])))
        p2 = float(np.max(np.abs(fisheye.index_columns(grid, 2, lam)[2])))
        ok = ok and (p2 < p1)
    return 0.0 if ok else 1.0, ""


def centrifugal_subtraction_loop():
    # two evaluations per (l, lam)
    grid = np.linspace(0.05, 3.0, 120)
    worst = 0.0
    for l in (0, 1, 2):
        for lam in (1.0, 10.0):
            lhs = fisheye._deformation(grid, l, lam, exact=True)[2] + l * (l + 1) / grid**2
            rhs = family_columns(grid, DoParams.nodeless(1.0, l, lam))[1]
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst, ""


def lambda_recovery_loop():
    # one public family_columns call per lam
    grid = np.linspace(0.1, 5.0, 200)
    gaps = []
    for lam in (1.0, 10.0, 100.0, 1000.0):
        gap = family_columns(grid, DoParams.nodeless(1.0, 1, lam))[1] - u_minus(grid, 1, 1.0)
        gaps.append(float(np.max(np.abs(gap))))
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    return 0.0 if monotone else 1.0, str(gaps)


def test_riccati_families_are_the_scan_grid():
    assert [(p.kappa, p.l, p.lam) for p in verify.RICCATI_FAMILIES] == FAMILIES


def test_riccati_scan_equals_the_loop():
    # check_riccati runs the scan at its default 25 radii
    assert verify._riccati_scan() == riccati_loop(np.linspace(0.1, 10.0, 25))
    got = tuple(r.residual for r in verify.check_riccati())
    assert got == riccati_loop(np.linspace(0.1, 10.0, 25))
    assert verify._riccati_scan(radii=RICCATI_RADII) == riccati_loop(RICCATI_RADII)


def test_riccati_scan_forms_no_family_term():
    # the scan reads f and I0 + lam alone: no f', and I0 once per sector on
    # the stencil grid and once at the radii
    df, i0 = mock.Mock(wraps=isospectral.radial_factor_df), mock.Mock(wraps=isospectral.i0)
    with mock.patch.multiple(isospectral, radial_factor_df=df, i0=i0):
        verify._riccati_scan()
    assert (df.call_count, i0.call_count) == (0, 12)


@pytest.mark.parametrize(
    "check,loop",
    [
        (verify.check_log_derivative, log_derivative_loop),
        (verify.check_partner_sum_difference, partner_sum_difference_loop),
        (verify.check_langer_residual, langer_loop),
        (verify.check_gegenbauer_recurrence, gegenbauer_recurrence_loop),
        (verify.check_gegenbauer_parity, gegenbauer_parity_loop),
        (verify.check_zero_mode_family, zero_mode_family_loop),
    ],
    ids=["log-derivative", "partner-sum-difference", "langer", "gegenbauer-recurrence",
         "gegenbauer-parity", "zero-mode-family"],
)
def test_batched_check_equals_the_loop(check, loop):
    assert check().residual == loop()


@pytest.mark.parametrize(
    "check,loop",
    [
        (verify.check_closed_vs_quadrature, closed_vs_quadrature_loop),
        (verify.check_percent_bound, percent_bound_loop),
        (verify.check_ratio_damping, ratio_damping_loop),
        (verify.check_lambda_recovery, lambda_recovery_loop),
        (verify.check_centrifugal_subtraction, centrifugal_subtraction_loop),
    ],
    ids=["closed-vs-quadrature", "percent-bound", "ratio-damping", "lambda-recovery",
         "centrifugal-subtraction"],
)
def test_batched_check_and_detail_equal_the_loop(check, loop):
    result = check()
    assert (result.residual, result.detail) == loop()


@pytest.mark.parametrize(
    "check,calls",
    [
        (verify.check_riccati, 1),
        (verify.check_log_derivative, 1),
        (verify.check_partner_sum_difference, 1),
        (verify.check_langer_residual, 1),
    ],
    ids=["riccati", "log-derivative", "partner-sum-difference", "langer"],
)
def test_one_derivative_call_per_quantity(check, calls):
    with mock.patch.object(numerics, "derivative", wraps=numerics.derivative) as made:
        check()
    assert made.call_count == calls


@pytest.mark.parametrize(
    "check,calls",
    [(verify.check_gegenbauer_recurrence, 12), (verify.check_gegenbauer_parity, 9)],
    ids=["recurrence", "parity"],
)
def test_one_gegenbauer_call_per_degree(check, calls):
    # every order (and, for parity, both signs of xi) in one call per degree
    with mock.patch.object(specfun, "gegenbauer", wraps=specfun.gegenbauer) as made:
        check()
    assert made.call_count == calls


def test_one_quadrature_call_for_every_i0_sector():
    quadrature = numerics.integrate_adaptive
    with mock.patch.object(numerics, "integrate_adaptive", wraps=quadrature) as made:
        # i0_quadrature holds its own reference to the function
        with mock.patch.object(isospectral, "integrate_adaptive", made):
            verify.check_closed_vs_quadrature()
    assert made.call_count == 1


@pytest.mark.parametrize(
    "run,calls",
    [(verify._riccati_scan, 12), (verify.check_zero_mode_family, 3)],
    ids=["riccati-scan", "zero-mode-family"],
)
def test_one_i0_evaluation_per_sector_and_grid(run, calls):
    # the scan: 6 (kappa, l) sectors, each on the stencil grid and at the
    # radii; the zero-mode check: l = 0, 1, 2 on the march grid, both lam at once
    with mock.patch.object(isospectral, "i0", wraps=isospectral.i0) as made:
        run()
    assert made.call_count == calls


def test_suite_runs_clean_with_warnings_as_errors():
    # the one assertion of the suite's outcome: every check but the two
    # documented corners passes, and each verdict is its residual against
    # its tolerance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = verify.run_suite("all")
    assert len(results) == 26
    assert [r.name for r in results if not r.passed] == [
        "riccati-absolute",
        "index-ratio-percent-bound",
    ]
    assert all(r.passed == (r.residual <= r.tolerance) for r in results)
