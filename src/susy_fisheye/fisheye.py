"""Maxwell fish-eye application of the kappa = 1 isospectral family.

The family potential without its centrifugal term,

    V_fam(rho; l, lam) = -(2l+1)(2l+3)/(1+rho^2)^2
                         - 4 f f'/(I0+lam) + 2 f^4/(I0+lam)^2,

defines a one-parameter family of refractive-index profiles
n ~ sqrt(-V_fam).  Indices are normalized by (l + 1/2) so that the
baseline profile tends to the classic fish-eye value n(0) = 2 at large l.
The default index mode is the first-order ratio form

    n_iso = n_M (1 + ratio),   ratio = (1/2) V_lam / V_M,

with V_M the magnitude of the baseline term and V_lam the magnitude of the
lam-dependent part; the exact sqrt(-V_fam) form is available via a flag.
"""

from __future__ import annotations

import math

import numpy as np

from .do_core import DoParams, _as_rho, _check_l, u_minus
from .isospectral import _family_terms, _u_bos

__all__ = ["index_maxwell", "index_columns", "find_inflection", "figure_table"]

# Hysteresis band for second-difference sign detection: curvature values
# smaller than this are treated as zero to suppress round-off flips.
_CURVATURE_EPS = 1e-12


def _deformation(r, l, lam, exact):
    """(ratio, f_bos, V_fam) at kappa = 1, V_fam None unless exact; frees the terms.

    lam is a float or an array that broadcasts against r (a column gives
    one row per lam), each lam validated as DoParams validates it; every
    element is computed by the same operations as for a scalar lam.
    """
    for one_lam in np.ravel(lam):
        DoParams.nodeless(kappa=1.0, l=l, lam=one_lam)
    terms = _family_terms(r, l, 1.0, lam)
    v_m = (2 * l + 1) * (2 * l + 3) / (1.0 + r**2) ** 2
    ratio = 0.5 * (terms[2] - terms[3]) / v_m
    if not exact:
        return ratio, terms[1], None
    return ratio, terms[1], _u_bos(u_minus(r, l, 1.0), terms) - l * (l + 1) / r**2


def index_maxwell(rho, l):
    """Baseline index sqrt((2l+1)(2l+3)) / ((l + 1/2)(1 + rho^2)).

    Defined on rho >= 0, the lens centre included; the value at the origin
    tends to 2 as l grows.
    """
    r = np.asarray(rho, dtype=float)
    bad = ~(r >= 0)
    if bad.any():
        raise ValueError(f"rho must be non-negative, got rho = {float(r[bad][0])}")
    _check_l(l)
    amp = math.sqrt((2 * l + 1) * (2 * l + 3)) / (l + 0.5)
    return amp / (1.0 + r**2)


def index_columns(rho, l, lam, exact=False):
    """The columns (n_M, n_iso, ratio, f_bos) of the index family on one grid.

    ratio = (1/2) V_lam / V_M is the first-order index ratio:
    V_lam = 4 f f'/(I0+lam) - 2 f^4/(I0+lam)^2 is the negative of the
    lam-dependent part of the family potential and V_M the negative of its
    baseline term, so the ratio changes sign where f peaks.  n_iso is the
    first-order n_M (1 + ratio) the figure tables use, or in exact mode
    sqrt(-V_fam) / (l + 1/2), which raises where V_fam >= 0.  f, f' and I0
    are evaluated once for all four columns, and U- only in exact mode.
    """
    r = _as_rho(rho)
    ratio, f_bos, v_fam = _deformation(r, l, lam, exact)
    n_m = index_maxwell(r, l)
    if not exact:
        return n_m, n_m * (1.0 + ratio), ratio, f_bos
    if np.any(v_fam >= 0):
        raise ValueError("family potential is non-negative: exact index undefined")
    return n_m, np.sqrt(-v_fam) / (l + 0.5), ratio, f_bos


def _second_difference(values, h):
    """Five-point second-derivative stencil on a uniform grid (O(h^4))."""
    v = values
    d2 = np.full_like(v, np.nan)
    d2[2:-2] = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]) / (
        12.0 * h * h
    )
    return d2


def find_inflection(l, lam, grid):
    """Smallest rho in (0, 1] where the curvature of n_iso changes sign.

    The grid must be uniform, strictly increasing and carry at least 100
    points inside (0, 1].  Returns the linearly interpolated crossing
    abscissa, or None when the curvature keeps its sign on (0, 1].
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or np.any(np.diff(g) <= 0):
        raise ValueError("grid must be one-dimensional and strictly increasing")
    inside = np.count_nonzero((g > 0.0) & (g <= 1.0))
    if inside < 100:
        raise ValueError(
            f"grid too coarse: {inside} points inside (0, 1], need at least 100"
        )
    steps = np.diff(g)
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise ValueError("grid must be uniform")
    n = index_columns(g, l, lam)[1]
    d2 = _second_difference(n, h)
    sign = np.zeros_like(d2)
    valid = np.isfinite(d2) & (np.abs(d2) > _CURVATURE_EPS)
    sign[valid] = np.sign(d2[valid])
    for i in range(2, g.size - 3):
        if g[i] > 1.0:
            break
        si, sj = sign[i], sign[i + 1]
        if si != 0 and sj != 0 and si != sj:
            root = g[i] + h * d2[i] / (d2[i] - d2[i + 1])
            if root <= 1.0:
                return float(root)
    return None


def figure_table(l, lam, grid):
    """The figure's five CSV columns (rho, n_M, n_iso, ratio, f_bos^2) on one grid.

    Both index columns must be strictly positive; n_M always is, and the
    first-order n_iso turns negative where the ratio drops below -1
    (l = 0, lam = 1 past rho ~ 2.1).
    """
    g = _as_rho(grid)
    n_m, n_iso, ratio, f_bos = index_columns(g, l, lam)
    if np.any(n_iso <= 0):
        raise ValueError("index columns must be strictly positive")
    return g, n_m, n_iso, ratio, f_bos**2
