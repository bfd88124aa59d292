"""Residual-reporting verification suite shared by the CLI and the tests.

Each check recomputes one documented invariant with an independent oracle
and reports the measured residual next to its tolerance.

Note: the checks named 'riccati-absolute' and 'index-ratio-percent-bound'
are known to fail at documented parameter corners; see README.
"""

from __future__ import annotations

import math
from collections import namedtuple
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
from .numerics import _stacked

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


def _result(name, residual, tol, detail=""):
    return CheckResult(name, float(residual), tol, float(residual) <= tol, detail)


def _frobenius_seed(rho, l, kappa):
    """Two-term local solution u ~ rho^(l+1) (1 - (2l+1)/(2k) rho^(2k)).

    The subleading coefficient follows from the indicial recursion of the
    half-line equation with the nodeless coupling, so the seed stays
    independent of the closed-form radial factor it is used to verify.
    """
    return rho ** (l + 1) * (1.0 - (2 * l + 1) / (2.0 * kappa) * rho ** (2.0 * kappa))


# The zero mode is marched in the Langer variable x = ln rho on a uniform
# x-grid from ln ZERO_MODE_START to ln 5 whose step is at most
# ZERO_MODE_STEP.  The pair is the one with the fewest steps, among those
# scripts/zero_mode_step_scan.py scans, whose two residuals are at most
# those of a uniform rho-grid of step 1e-3 from rho = 1e-3:
# zero-mode-particular 1.154e-7 and zero-mode-family 1.267e-9.  A larger
# start is held back by the seed's truncation error (3e-3: particular
# 9.4e-7), a larger step by the march's (4.5e-3: family 1.7e-9).
ZERO_MODE_START = 1e-3
ZERO_MODE_STEP = 4e-3


def _rescaled_deviation(u, f):
    """Max relative deviation of u from f after a least-squares global rescale."""
    scale = np.dot(u, f) / np.dot(u, u)
    return float(np.max(np.abs(scale * u - f) / np.abs(f)))


def _zero_mode_residual(l, kappa, lam=None):
    """Max relative deviation between the Numerov zero mode and the factor.

    Under x = ln rho and phi = rho^(-1/2) u, -u'' + U u = 0 becomes
    -phi'' + (1/4 + rho^2 U) phi = 0, the Langer form of the paper's full
    line: for U = U_- its potential is (l + 1/2)^2 - (w/4) sech^2(kappa x),
    smooth for every kappa, where on the rho-grid the kappa = 1/2 well is
    Coulomb-like at the origin.  phi is marched across a uniform x-grid
    from ln ZERO_MODE_START to ln 5, step at most ZERO_MODE_STEP, from the
    Frobenius seeds times rho^(-1/2).  rho^(1/2) phi is compared with the
    analytic radial factor (or its damped family counterpart when lam is
    given) on the window [0.1, 5] after a least-squares global rescale.
    lam may also be a tuple: the family terms are then evaluated once on
    the grid for all of its values, each lam is marched on its own, and
    the worst deviation is returned.

    The convergence-order check marches on the rho-grid instead
    (_rho_grid_residual).  On this x-grid the (kappa = 1, l = 0) residual
    is 3.6e-11 at step 8e-3 and 8.7e-12 at 4e-3, a step-halving ratio of
    4.2: at that size the seed's truncation and rounding, not the step,
    set it, so the ratio cannot show the march's fourth order.
    """
    n = math.ceil(math.log(5.0 / ZERO_MODE_START) / ZERO_MODE_STEP) + 1
    x = np.linspace(math.log(ZERO_MODE_START), math.log(5.0), n)
    rho = np.exp(x)
    phi0, phi1 = (_frobenius_seed(r, l, kappa) / math.sqrt(r) for r in rho[:2])
    u_m = u_minus(rho, l, kappa)
    if lam is None:
        pots, refs = [u_m], [radial_factor_f(rho, l, kappa)]
    else:
        terms = isospectral._family_terms(rho, l, kappa, np.reshape(lam, (-1, 1)))
        pots, refs = isospectral._u_bos(u_m, terms), terms[1]
    sel = (rho >= 0.1) & (rho <= 5.0)
    root = np.sqrt(rho[sel])
    worst = 0.0
    for pot, ref in zip(pots, refs):
        langer = 0.25 + rho**2 * pot
        phi = numerics.numerov_zero_energy(lambda _, langer=langer: langer, x, phi0, phi1)
        worst = max(worst, _rescaled_deviation(root * phi[sel], ref[sel]))
    return worst


def _rho_grid_residual(h):
    """The (kappa = 1, l = 0) zero-mode residual marched in rho with step h.

    -u'' + U_- u = 0 on the uniform rho-grid h, 2h, ..., 5 from the
    Frobenius seeds, compared on [0.1, 5] as in _zero_mode_residual.
    """
    grid = np.arange(h, 5.0 + h / 2, h)
    u0, u1 = (_frobenius_seed(r, 0, 1.0) for r in grid[:2])
    pot = u_minus(grid, 0, 1.0)
    u = numerics.numerov_zero_energy(lambda _: pot, grid, u0, u1)
    sel = (grid >= 0.1) & (grid <= 5.0)
    return _rescaled_deviation(u[sel], radial_factor_f(grid, 0, 1.0)[sel])


# ----------------------------------------------------------------- specfun


def check_gegenbauer_recurrence():
    # one call per degree: the orders on rows, the points on columns
    xi = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    q = np.array([[0.5], [1.5], [2.5]])
    vals = [specfun.gegenbauer(p, q, xi) for p in range(12)]
    worst = 0.0
    for p in range(1, 11):
        lhs = (p + 1) * vals[p + 1]
        rhs = 2 * (p + q) * xi * vals[p] - (p + 2 * q - 1) * vals[p - 1]
        ref = np.maximum(np.maximum(abs(lhs), abs(rhs)), 1.0)
        worst = max(worst, float(np.max(abs(lhs - rhs) / ref)))
    return _result("gegenbauer-recurrence", worst, 1e-12)


def check_gegenbauer_parity():
    # one call per degree: xi and -xi on the leading axis, the orders on rows
    xi = np.array([0.1, 0.35, 0.8])
    q = np.array([[0.5], [1.5], [2.5]])
    both = np.stack([xi, -xi])[:, None, :]
    worst = 0.0
    for p in range(9):
        a, b = specfun.gegenbauer(p, q, both)
        worst = max(worst, float(np.max(abs(b - (-1.0) ** p * a))))
    return _result("gegenbauer-parity", worst, 1e-10)


# ----------------------------------------------------------------- do-core


def check_log_derivative():
    sectors = [(l, kappa) for kappa in (0.5, 1.0) for l in (0, 1, 2, 3)]
    f = _stacked(radial_factor_f, sectors)
    r = np.tile(np.linspace(0.05, 20.0, 50), (len(sectors), 1))
    fd = numerics.derivative(f, r, h0=0.2 * r)
    gap = _stacked(superpotential_w, sectors)(r) + fd / f(r)
    return _result("log-derivative-identity", np.max(np.abs(gap)), 1e-8)


def check_partner_sum_difference():
    sectors = [(l, kappa) for kappa in (0.5, 1.0) for l in (0, 1, 2)]
    w = _stacked(superpotential_w, sectors)
    r = np.tile(np.linspace(0.1, 10.0, 30), (len(sectors), 1))
    dw = numerics.derivative(w, r, h0=0.2 * r)
    gap = _stacked(u_plus, sectors)(r) - _stacked(u_minus, sectors)(r) - 2.0 * dw
    return _result("partner-sum-difference", np.max(np.abs(gap)), 1e-6)


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
    # the oracle integrates all twelve (kappa, l) sectors in one call
    rhos = np.logspace(math.log10(0.01), math.log10(50.0), 50)
    kappas, ls = (1.0, 0.5), range(6)
    quadrature = isospectral.i0_quadrature(rhos, np.array(ls), np.array(kappas)[:, None])
    worst = 0.0
    for kappa, row in zip(kappas, quadrature):
        for l in ls:
            gap = isospectral.i0(rhos, l, kappa) - row[l]
            worst = max(worst, float(np.max(np.abs(gap))))
    return _result("closed-form-vs-quadrature", worst, 1e-9)


# the 18 families of the Riccati scan, kappa slowest and lam fastest
RICCATI_FAMILIES = tuple(
    DoParams.nodeless(kappa, l, lam)
    for kappa in (0.5, 1.0)
    for l in (0, 1, 2)
    for lam in (0.5, 1.0, 10.0)
)


def _riccati_scan(radii=np.linspace(0.1, 10.0, 25), families=RICCATI_FAMILIES):
    """Worst absolute and relative Riccati residual and partner gap over the families.

    The residual is |-V_gen' + 2 W V_gen + 1|, taken as it is and over
    max(1, |V_gen'|); the partner gap is |W_gen' + W_gen^2 - (W' + W^2)|,
    the two fermionic partners.  The families are grouped by (kappa, l)
    sector, and each sector's f, I0 and W are evaluated once per grid for
    all of its lam (isospectral._general), so the scan evaluates I0 twice
    per sector: on the stencil grid of its one derivative call, which
    covers V_gen' and W_gen' of every family and W' of every sector, and at
    the radii.
    """
    n = len(families)
    sectors = {}
    for i, p in enumerate(families):
        sectors.setdefault((p.l, p.kappa), []).append(i)
    # the rows of one grid, each holding the radii: V_gen of each family,
    # W_gen of each family, then W of each sector; family i reads W on w_row[i]
    w_row = np.empty(n, dtype=int)
    for k, idx in enumerate(sectors.values()):
        w_row[idx] = 2 * n + k
    lams = np.array([p.lam for p in families])[:, None]

    def quantities(s):
        out = np.empty(s.shape)
        for k, ((l, kappa), idx) in enumerate(sectors.items()):
            row = [2 * n + k]
            v, wg, w = isospectral._general(s[..., row, :], l, kappa, lams[idx])
            out[..., idx, :] = v
            out[..., [n + i for i in idx], :] = wg
            out[..., row, :] = w
        return out

    r = np.tile(radii, (2 * n + len(sectors), 1))
    d = numerics.derivative(quantities, r, h0=0.25 * r)
    q = quantities(r)
    res = np.abs(-d[:n] + 2.0 * q[w_row] * q[:n] + 1.0)
    worst_rel = float(np.max(res / np.maximum(1.0, np.abs(d[:n]))))
    up_general = d[n : 2 * n] + q[n : 2 * n] ** 2
    up_particular = d[w_row] + q[w_row] ** 2
    worst_partner = float(np.max(np.abs(up_general - up_particular)))
    return float(np.max(res)), worst_rel, worst_partner


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
    worst = max(_zero_mode_residual(l, 1.0, (1.0, 10.0)) for l in (0, 1, 2))
    return _result("zero-mode-family", worst, 1e-5)


def check_lambda_recovery():
    # every lam on its own row of one evaluation of the kappa = 1, l = 1 terms
    grid = np.linspace(0.1, 5.0, 200)
    lams = np.array([[1.0], [10.0], [100.0], [1000.0]])
    u_m = u_minus(grid, 1, 1.0)
    u_bos = isospectral._u_bos(u_m, isospectral._family_terms(grid, 1, 1.0, lams))
    gaps = [float(np.max(np.abs(row - u_m))) for row in u_bos]
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    return _result("lambda-recovery-monotone", 0.0 if monotone else 1.0, 0.0, str(gaps))


# ----------------------------------------------------------------- fisheye


def check_centrifugal_subtraction():
    # fisheye's V_fam = -(V_M + V_lam) against U_bos - l(l+1)/rho^2, per lam column
    grid = np.linspace(0.05, 3.0, 120)
    lams = np.array([[1.0], [10.0]])
    worst = 0.0
    for l in (0, 1, 2):
        lhs = fisheye._deformation(grid, l, lams, exact=True)[2] + l * (l + 1) / grid**2
        terms = isospectral._family_terms(grid, l, 1.0, lams)
        rhs = isospectral._u_bos(u_minus(grid, l, 1.0), terms)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return _result("centrifugal-subtraction", worst, 1e-10)


# the radii of the lens checks, read-only because it is shared: rho <= 1
# holds the 100 points find_inflection needs, and the grid runs on to rho = 3
LENS_GRID = np.linspace(0.01, 3.0, 300)
LENS_GRID.flags.writeable = False


def _ratio_peaks(l, lams):
    """max |ratio| on LENS_GRID at kappa = 1 for each lam, one evaluation for all."""
    ratio = fisheye._deformation(LENS_GRID, l, np.reshape(lams, (-1, 1)), exact=False)[0]
    return [float(np.max(np.abs(row))) for row in ratio]


def check_percent_bound():
    lams = (1.0, 10.0)
    worst = 0.0
    details = []
    for l in (1, 2):
        for lam, peak in zip(lams, _ratio_peaks(l, lams)):
            details.append(f"l={l},lam={lam}: {peak:.4f}")
            worst = max(worst, peak)
    return _result(
        "index-ratio-percent-bound",
        worst,
        0.10,
        "; ".join(details) + " (known to exceed 0.10 at l=1, lam=1 near rho=3)",
    )


def check_ratio_damping():
    lams = (1.0, 10.0)
    ok = all(p2 < p1 for p1, p2 in zip(_ratio_peaks(1, lams), _ratio_peaks(2, lams)))
    return _result("ratio-damping-in-l", 0.0 if ok else 1.0, 0.0)


def check_inflection():
    baseline = fisheye.find_inflection(0, 1e9, LENS_GRID)
    residual = abs(baseline - 1.0 / math.sqrt(3.0))
    ok = residual <= 2 * (LENS_GRID[1] - LENS_GRID[0])
    for l in (0, 1, 2):
        for lam in (1.0, 10.0):
            star = fisheye.find_inflection(l, lam, LENS_GRID)
            ok = ok and (star is not None and 0.0 < star <= 1.0)
    return _result("inflection-points", 0.0 if ok else 1.0, 0.0, f"baseline {baseline:.6f}")


# ---------------------------------------------------------------- fullline


def check_langer_residual():
    # phi_l is the bound state at -nu^2 of the well -nu (nu + 1) sech^2 x,
    # nu = l + 1/2, for l = 0, 1, 2 on rows 0, 1, 2
    nu = np.array([[0.5], [1.5], [2.5]])

    def phi_l(x, l):
        return np.exp(-0.5 * x) * radial_factor_f(np.exp(x), l, 1.0)

    phi = _stacked(phi_l, [(0,), (1,), (2,)])
    xs = np.tile(np.linspace(-4.0, 4.0, 41), (3, 1))
    d2 = numerics.derivative(phi, xs, order=2, h0=0.05)
    res = -d2 + (nu**2 - nu * (nu + 1.0) / np.cosh(xs) ** 2) * phi(xs)
    return _result("langer-residual", np.max(np.abs(res)), 1e-6)


# one eigen-oracle well: its parameter, potential, exact spectrum and domain
Well = namedtuple("Well", "param potential spectrum domain")


def _wells(params, potential, spectrum, domain=(-12.0, 12.0)):
    """The well potential(x, p) with the spectrum spectrum(p) for each p, on one domain."""
    return tuple(Well(p, lambda x, p=p: potential(x, p), spectrum(p), domain) for p in params)


# the wells of the eigen-oracle checks, by group: the reflectionless ladders
# nb, their partners (the ladder of nb - 1), the single-state family lam0,
# and the half-width aufbau wells N on a domain wide enough for their width
DVR_WELLS = {
    "ladder": _wells((1, 2, 3, 4), fullline.rm_potential, fullline.rm_spectrum),
    "partner": _wells(
        (2, 3, 4), fullline.rm_partner_potential, lambda nb: fullline.rm_spectrum(nb - 1)
    ),
    "family": _wells((0.1, 1.0, 10.0), fullline.rm_family_single, lambda lam0: [-1.0]),
    "aufbau": _wells(
        (1, 3), fullline.aufbau_rm_potential, fullline.aufbau_spectrum, (-24.0, 24.0)
    ),
}


def _solve_wells(group):
    """(well, states, worst |E - exact|, or inf where the count differs) of each well of a group."""
    solved = []
    for well in DVR_WELLS[group]:
        found = numerics.dvr_bound_states(well.potential, domain=well.domain)
        gaps = [abs(e - exact) for e, exact in zip(found, well.spectrum)]
        solved.append((well, found, max(gaps) if len(found) == len(well.spectrum) else math.inf))
    return solved


def check_rm_ladder():
    wells = _solve_wells("ladder")
    detail = next((f"nb={w.param}: {len(f)} states" for w, f, _ in wells
                   if len(f) != len(w.spectrum)), "")
    return _result("rm-ladder", max(gap for *_, gap in wells), 1e-6, detail)


def check_rm_partner_deficit():
    bad = [f"nb={w.param}: {len(f)} states" for w, f, _ in _solve_wells("partner")
           if len(f) != len(w.spectrum)]
    return _result("rm-partner-deficit", 1.0 if bad else 0.0, 0.0, bad[0] if bad else "")


def check_family_spectrum():
    wells = _solve_wells("family")
    detail = next((f"lam0={w.param}" for w, f, _ in wells if len(f) != len(w.spectrum)), "")
    return _result("family-spectrum-invariance", max(gap for *_, gap in wells), 1e-6, detail)


def check_translation_law():
    xs = np.linspace(-8.0, 8.0, 20001)
    worst = 0.0
    for lam0 in (0.1, 1.0, 10.0):
        v = fullline.rm_family_single(xs, lam0)
        argmin = float(xs[int(np.argmin(v))])
        worst = max(worst, abs(argmin - (-fullline.rm_family_shift(lam0))))
    return _result("family-translation-law", worst, 1e-3)


def check_aufbau():
    worst = max(abs(f[0] - w.spectrum[0]) for w, f, _ in _solve_wells("aufbau"))
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
    e_coarse = _rho_grid_residual(8e-3)
    e_fine = _rho_grid_residual(4e-3)
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
    bad = [f"nb={w.param}" for w, _, gap in _solve_wells("ladder") if gap > 1e-6]
    return _result("shooting-completeness", 1.0 if bad else 0.0, 0.0, bad[0] if bad else "")


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
