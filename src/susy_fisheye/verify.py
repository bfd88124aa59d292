"""Residual-reporting verification suite shared by the CLI and the tests.

Each check recomputes one documented invariant with an independent oracle
and reports the measured residual next to its tolerance.  Tolerances can
be scaled globally through the SUSY_FISHEYE_TOL environment variable.

Note: the checks named 'riccati-absolute' and 'index-ratio-percent-bound'
are known to fail at documented parameter corners; see README.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import fisheye, fullline, isospectral, numerics, specfun
from .do_core import (
    DoParams,
    coupling_w,
    radial_factor_f,
    superpotential_w,
    u_minus,
    u_plus,
)
from .isospectral import IsoFamily

__all__ = ["CheckResult", "SUITES", "run_suite", "tolerance_scale"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


def tolerance_scale() -> float:
    """Global tolerance multiplier from SUSY_FISHEYE_TOL (default 1.0)."""
    raw = os.environ.get("SUSY_FISHEYE_TOL", "1.0")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ValueError(f"SUSY_FISHEYE_TOL must be a number, got {raw!r}") from exc
    if scale <= 0:
        raise ValueError("SUSY_FISHEYE_TOL must be positive")
    return scale


def _result(name, residual, tol, detail=""):
    scale = tolerance_scale()
    return CheckResult(name, float(residual), tol * scale, float(residual) <= tol * scale, detail)


def _frobenius_seed(rho, l, kappa):
    """Two-term local solution u ~ rho^(l+1) (1 - (2l+1)/(2k) rho^(2k)).

    The subleading coefficient follows from the indicial recursion of the
    half-line equation with the nodeless coupling, so the seed stays
    independent of the closed-form radial factor it is used to verify.
    """
    return rho ** (l + 1) * (1.0 - (2 * l + 1) / (2.0 * kappa) * rho ** (2.0 * kappa))


def _zero_mode_residual(l, kappa, lam=None, h=1e-3, window=(0.1, 5.0)):
    """Max relative deviation between the Numerov zero mode and the factor.

    Marches -u'' + U u = 0 from Frobenius seeds near the origin and
    compares against the analytic radial factor (or its damped family
    counterpart when lam is given) after a least-squares global rescale.
    """
    grid = np.arange(h, window[1] + h / 2, h)
    u0 = _frobenius_seed(grid[0], l, kappa)
    u1 = _frobenius_seed(grid[1], l, kappa)
    if lam is None:
        pot = lambda r: u_minus(r, l, kappa)
        ref = radial_factor_f(grid, l, kappa)
    else:
        fam = IsoFamily(DoParams.nodeless(kappa, l, lam))
        pot = lambda r: isospectral.u_bosonic_family(r, fam)
        ref = isospectral.radial_factor_bosonic(grid, fam)
    prof = numerics.numerov_zero_energy(pot, grid, u0, u1)
    sel = (grid >= window[0]) & (grid <= window[1])
    u, f = prof.values[sel], ref[sel]
    scale = np.dot(u, f) / np.dot(u, u)
    return float(np.max(np.abs(scale * u - f) / np.abs(f)))


# ----------------------------------------------------------------- specfun


def check_gegenbauer_recurrence():
    worst = 0.0
    for q in (0.5, 1.5, 2.5):
        for xi in (-1.0, -0.5, 0.0, 0.5, 1.0):
            vals = [
                specfun.gegenbauer(specfun.GegenbauerArgs(p, q, xi)) for p in range(12)
            ]
            for p in range(1, 11):
                lhs = (p + 1) * vals[p + 1]
                rhs = 2 * (p + q) * xi * vals[p] - (p + 2 * q - 1) * vals[p - 1]
                ref = max(abs(lhs), abs(rhs), 1.0)
                worst = max(worst, abs(lhs - rhs) / ref)
    return _result("gegenbauer-recurrence", worst, 1e-12)


def check_gegenbauer_parity():
    worst = 0.0
    for p in range(9):
        for q in (0.5, 1.5, 2.5):
            for xi in (0.1, 0.35, 0.8):
                a = specfun.gegenbauer(specfun.GegenbauerArgs(p, q, xi))
                b = specfun.gegenbauer(specfun.GegenbauerArgs(p, q, -xi))
                worst = max(worst, abs(b - (-1.0) ** p * a))
    return _result("gegenbauer-parity", worst, 1e-10)


# ----------------------------------------------------------------- do-core


def check_log_derivative():
    worst = 0.0
    r = np.linspace(0.05, 20.0, 50)
    for kappa in (0.5, 1.0):
        for l in (0, 1, 2, 3):
            fd = numerics.derivative(lambda s: radial_factor_f(s, l, kappa), r, h0=0.2 * r)
            gap = superpotential_w(r, l, kappa) + fd / radial_factor_f(r, l, kappa)
            worst = max(worst, float(np.max(np.abs(gap))))
    return _result("log-derivative-identity", worst, 1e-8)


def check_partner_sum_difference():
    worst = 0.0
    r = np.linspace(0.1, 10.0, 30)
    for kappa in (0.5, 1.0):
        for l in (0, 1, 2):
            dw = numerics.derivative(lambda s: superpotential_w(s, l, kappa), r, h0=0.2 * r)
            gap = u_plus(r, l, kappa) - u_minus(r, l, kappa) - 2.0 * dw
            worst = max(worst, float(np.max(np.abs(gap))))
    return _result("partner-sum-difference", worst, 1e-6)


def check_coupling_integers():
    worst = 0
    for l in range(11):
        worst = max(worst, abs(coupling_w(l + 1, 1.0) - (2 * l + 1) * (2 * l + 3)))
    return _result("coupling-integer-identity", worst, 0.0)


def check_zero_mode_particular():
    worst = 0.0
    for kappa in (0.5, 1.0):
        for l in (0, 1, 2, 3):
            worst = max(worst, _zero_mode_residual(l, kappa))
    return _result("zero-mode-particular", worst, 1e-6)


# ------------------------------------------------------------- isospectral


def check_closed_vs_quadrature():
    rhos = np.logspace(math.log10(0.01), math.log10(50.0), 50)
    worst = 0.0
    for l in range(6):
        for r in rhos:
            q1 = isospectral.i0_quadrature(r, l, 1.0, tol=1e-12)
            c1 = isospectral.i0_closed_one(isospectral.beta_of_rho(r, 1.0), l)
            worst = max(worst, abs(q1 - c1))
            qh = isospectral.i0_quadrature(r, l, 0.5, tol=1e-12)
            ch = isospectral.i0_closed_half(isospectral.beta_of_rho(r, 0.5), l)
            worst = max(worst, abs(qh - ch))
    return _result("closed-form-vs-quadrature", worst, 1e-9)


def _riccati_scan():
    worst_abs = worst_rel = 0.0
    worst_partner = 0.0
    r = np.linspace(0.1, 10.0, 25)
    for kappa in (0.5, 1.0):
        for l in (0, 1, 2):
            for lam in (0.5, 1.0, 10.0):
                fam = IsoFamily(DoParams.nodeless(kappa, l, lam))
                dv = numerics.derivative(
                    lambda s: isospectral.v_general(s, fam), r, h0=0.25 * r
                )
                res = np.abs(
                    -dv
                    + 2.0 * superpotential_w(r, l, kappa) * isospectral.v_general(r, fam)
                    + 1.0
                )
                worst_abs = max(worst_abs, float(np.max(res)))
                worst_rel = max(worst_rel, float(np.max(res / np.maximum(1.0, np.abs(dv)))))
                dwg = numerics.derivative(
                    lambda s: isospectral.superpotential_general(s, fam), r, h0=0.25 * r
                )
                dw = numerics.derivative(
                    lambda s: superpotential_w(s, l, kappa), r, h0=0.25 * r
                )
                up_general = dwg + isospectral.superpotential_general(r, fam) ** 2
                up_particular = dw + superpotential_w(r, l, kappa) ** 2
                worst_partner = max(
                    worst_partner, float(np.max(np.abs(up_general - up_particular)))
                )
    return worst_abs, worst_rel, worst_partner


def check_riccati():
    worst_abs, worst_rel, worst_partner = _riccati_scan()
    return [
        _result(
            "riccati-absolute",
            worst_abs,
            1e-6,
            "known to exceed the stated bound at l=2 corners where V' ~ 1e9",
        ),
        _result("riccati-relative", worst_rel, 1e-9),
        _result("shared-fermionic-partner", worst_partner, 1e-6),
    ]


def check_zero_mode_family():
    worst = 0.0
    for l in (0, 1, 2):
        for lam in (1.0, 10.0):
            worst = max(worst, _zero_mode_residual(l, 1.0, lam))
    return _result("zero-mode-family", worst, 1e-5)


def check_lambda_recovery():
    grid = np.linspace(0.1, 5.0, 200)
    gaps = []
    for lam in (1.0, 10.0, 100.0, 1000.0):
        fam = IsoFamily(DoParams.nodeless(1.0, 1, lam))
        gap = isospectral.u_bosonic_family(grid, fam) - u_minus(grid, 1, 1.0)
        gaps.append(float(np.max(np.abs(gap))))
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    return _result("lambda-recovery-monotone", 0.0 if monotone else 1.0, 0.0, str(gaps))


# ----------------------------------------------------------------- fisheye


def check_centrifugal_subtraction():
    grid = np.linspace(0.05, 3.0, 120)
    worst = 0.0
    for l in (0, 1, 2):
        for lam in (1.0, 10.0):
            fam = IsoFamily(DoParams.nodeless(1.0, l, lam))
            lhs = fisheye.v_family_fisheye(grid, l, lam) + l * (l + 1) / grid**2
            rhs = isospectral.u_bosonic_family(grid, fam)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return _result("centrifugal-subtraction", worst, 1e-10)


def check_percent_bound():
    grid = np.linspace(0.01, 3.0, 300)
    worst = 0.0
    details = []
    for l in (1, 2):
        for lam in (1.0, 10.0):
            peak = float(np.max(np.abs(fisheye.relative_ratio(grid, l, lam))))
            details.append(f"l={l},lam={lam}: {peak:.4f}")
            worst = max(worst, peak)
    return _result(
        "index-ratio-percent-bound",
        worst,
        0.10,
        "; ".join(details) + " (known to exceed 0.10 at l=1, lam=1 near rho=3)",
    )


def check_ratio_damping():
    grid = np.linspace(0.01, 3.0, 300)
    ok = True
    for lam in (1.0, 10.0):
        p1 = float(np.max(np.abs(fisheye.relative_ratio(grid, 1, lam))))
        p2 = float(np.max(np.abs(fisheye.relative_ratio(grid, 2, lam))))
        ok = ok and (p2 < p1)
    return _result("ratio-damping-in-l", 0.0 if ok else 1.0, 0.0)


def check_inflection():
    grid = np.linspace(0.01, 3.0, 300)
    baseline = fisheye.find_inflection(0, 1e9, grid)
    residual = abs(baseline - 1.0 / math.sqrt(3.0))
    ok = residual <= 2 * (grid[1] - grid[0])
    for l in (0, 1, 2):
        for lam in (1.0, 10.0):
            star = fisheye.find_inflection(l, lam, grid)
            ok = ok and (star is not None and 0.0 < star <= 1.0)
    return _result("inflection-points", 0.0 if ok else 1.0, 0.0, f"baseline {baseline:.6f}")


# ---------------------------------------------------------------- fullline


def check_langer_residual():
    worst = 0.0
    xs = np.linspace(-4.0, 4.0, 41)
    for n in (1, 2, 3):
        l = n - 1
        nu = n - 0.5

        def phi(x):
            return np.exp(-0.5 * x) * radial_factor_f(np.exp(x), l, 1.0)

        d2 = numerics.derivative(phi, xs, order=2, h0=0.05)
        res = -d2 + (nu**2 - nu * (nu + 1.0) / np.cosh(xs) ** 2) * phi(xs)
        worst = max(worst, float(np.max(np.abs(res))))
    return _result("langer-residual", worst, 1e-6)


def check_rm_ladder():
    worst = 0.0
    for nb in (1, 2, 3, 4):
        found = numerics.dvr_bound_states(lambda x: fullline.rm_potential(x, nb))
        if len(found) != nb:
            return _result("rm-ladder", float("inf"), 1e-6, f"nb={nb}: {len(found)} states")
        worst = max(
            worst, max(abs(e + k * k) for e, k in zip(found, range(nb, 0, -1)))
        )
    return _result("rm-ladder", worst, 1e-6)


def check_rm_partner_deficit():
    for nb in (2, 3, 4):
        found = numerics.dvr_bound_states(lambda x: -nb * (nb - 1) / np.cosh(x) ** 2)
        if len(found) != nb - 1:
            return _result(
                "rm-partner-deficit", 1.0, 0.0, f"nb={nb}: {len(found)} states"
            )
    return _result("rm-partner-deficit", 0.0, 0.0)


def check_family_spectrum():
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for lam0 in (0.1, 1.0, 10.0):
            found = numerics.dvr_bound_states(lambda x: fullline.rm_family_single(x, lam0))
            if len(found) != 1:
                return _result(
                    "family-spectrum-invariance", float("inf"), 1e-6, f"lam0={lam0}"
                )
            worst = max(worst, abs(found[0] + 1.0))
    return _result("family-spectrum-invariance", worst, 1e-6)


def check_translation_law():
    xs = np.linspace(-8.0, 8.0, 20001)
    worst = 0.0
    for lam0 in (0.1, 1.0, 10.0):
        v = fullline.rm_family_single(xs, lam0)
        argmin = float(xs[int(np.argmin(v))])
        worst = max(worst, abs(argmin - (-fullline.rm_family_shift(lam0))))
    return _result("family-translation-law", worst, 1e-3)


def check_aufbau():
    worst = 0.0
    for n_aufbau in (1, 3):
        found = numerics.dvr_bound_states(
            lambda x: fullline.aufbau_rm_potential(x, n_aufbau), domain=(-24.0, 24.0)
        )
        worst = max(worst, abs(found[0] + n_aufbau * n_aufbau / 4.0))
    return _result("aufbau-ground-state", worst, 1e-5)


def check_rescaling():
    res = abs(fullline.rescale_radius(1.0, 1.0) - 1.0 / math.sqrt(2.0))
    res = max(res, abs(fullline.rescale_radius(1.0, 1e12) - 1.0))
    return _result("radius-rescaling", res, 1e-10)


# ---------------------------------------------------------------- numerics


def check_quadrature_examples():
    worst = abs(numerics.integrate_adaptive(lambda x: x**2, 0.0, 1.0, 1e-12).value - 1.0 / 3.0)
    worst = max(
        worst,
        abs(
            numerics.integrate_adaptive(
                lambda r: r**2 / (1.0 + r**2), 0.0, 1.0, 1e-12
            ).value
            - (1.0 - math.pi / 4.0)
        ),
    )
    worst = max(worst, abs(numerics.integrate_adaptive(lambda x: x, 2.0, 2.0, 1e-12).value))
    return _result("quadrature-examples", worst, 1e-12)


def check_numerov_order():
    e_coarse = _zero_mode_residual(0, 1.0, h=8e-3)
    e_fine = _zero_mode_residual(0, 1.0, h=4e-3)
    ratio = e_coarse / e_fine
    return _result(
        "numerov-convergence-order",
        0.0 if ratio >= 16.0 else 16.0 - ratio,
        0.0,
        f"ratio {ratio:.1f}",
    )


def check_shooting_completeness():
    # The eigen-oracle is the sinc DVR now; the check keeps its old name
    # because verify reports and the benchmark's per-check metrics key on it.
    for nb in (1, 2, 3, 4):
        found = numerics.dvr_bound_states(lambda x: -nb * (nb + 1) / np.cosh(x) ** 2)
        if len(found) != nb or max(
            abs(e + k * k) for e, k in zip(found, range(nb, 0, -1))
        ) > 1e-6:
            return _result("shooting-completeness", 1.0, 0.0, f"nb={nb}")
    return _result("shooting-completeness", 0.0, 0.0)


SUITES = {
    "specfun": (check_gegenbauer_recurrence, check_gegenbauer_parity),
    "do-core": (
        check_log_derivative,
        check_partner_sum_difference,
        check_coupling_integers,
        check_zero_mode_particular,
    ),
    "isospectral": (
        check_closed_vs_quadrature,
        check_riccati,
        check_zero_mode_family,
        check_lambda_recovery,
    ),
    "fisheye": (
        check_centrifugal_subtraction,
        check_percent_bound,
        check_ratio_damping,
        check_inflection,
    ),
    "fullline": (
        check_langer_residual,
        check_rm_ladder,
        check_rm_partner_deficit,
        check_family_spectrum,
        check_translation_law,
        check_aufbau,
        check_rescaling,
    ),
    "numerics": (
        check_quadrature_examples,
        check_numerov_order,
        check_shooting_completeness,
    ),
}


def run_suite(name="all"):
    """Run one named suite (or all of them); returns a list of CheckResult."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from all, {', '.join(SUITES)}")
    results = []
    for suite in names:
        for fn in SUITES[suite]:
            out = fn()
            if isinstance(out, CheckResult):
                results.append(out)
            else:
                results.extend(out)
    return results
