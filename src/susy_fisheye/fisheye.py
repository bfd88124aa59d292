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
from dataclasses import dataclass

import numpy as np

from .do_core import DoParams, _as_rho, radial_factor_df, radial_factor_f
from .isospectral import IsoFamily, radial_factor_bosonic, u_bosonic_family

__all__ = [
    "FigureTable",
    "v_family_fisheye",
    "index_maxwell",
    "relative_ratio",
    "index_iso",
    "find_inflection",
    "figure_table",
    "figure_table_csv",
    "CSV_HEADER",
]

CSV_HEADER = "rho,n_maxwell,n_iso,ratio_minus_1,f_bos_sq"

# Hysteresis band for second-difference sign detection: curvature values
# smaller than this are treated as zero to suppress round-off flips.
_CURVATURE_EPS = 1e-12


@dataclass(frozen=True)
class FigureTable:
    """Four sampled curves (baseline index, family index, ratio, f_bos^2)."""

    grid: np.ndarray
    n_maxwell: np.ndarray
    n_iso: np.ndarray
    ratio_minus_one: np.ndarray
    f_bos_squared: np.ndarray
    meta: tuple

    def __post_init__(self):
        n = np.asarray(self.grid).size
        for col in (self.n_maxwell, self.n_iso, self.ratio_minus_one, self.f_bos_squared):
            if np.asarray(col).size != n:
                raise ValueError("all table columns must share the grid length")
        if np.any(self.n_maxwell <= 0) or np.any(self.n_iso <= 0):
            raise ValueError("index columns must be strictly positive")


def _family(l, lam):
    return IsoFamily(DoParams.nodeless(kappa=1.0, l=l, lam=lam))


def v_family_fisheye(rho, l, lam):
    """Family potential at kappa = 1 with the centrifugal term removed."""
    r = _as_rho(rho)
    if lam <= 0:
        raise ValueError("lam must be positive")
    fam = _family(l, lam)
    return u_bosonic_family(r, fam) - l * (l + 1) / r**2


def index_maxwell(rho, l):
    """Baseline index sqrt((2l+1)(2l+3)) / ((l + 1/2)(1 + rho^2)).

    Defined on rho >= 0; the value at the origin tends to 2 as l grows.
    """
    r = np.asarray(rho, dtype=float)
    if np.any(r < 0):
        raise ValueError("rho must be non-negative")
    if l < 0 or int(l) != l:
        raise ValueError("l must be a non-negative integer")
    amp = math.sqrt((2 * l + 1) * (2 * l + 3)) / (l + 0.5)
    return amp / (1.0 + r**2)


def relative_ratio(rho, l, lam):
    """First-order index ratio (1/2) V_lam / V_M.

    V_lam = 4 f f'/(I0+lam) - 2 f^4/(I0+lam)^2 is the negative of the
    lam-dependent part of the family potential and V_M the negative of its
    baseline term; the ratio changes sign where f peaks.
    """
    r = _as_rho(rho)
    if lam <= 0:
        raise ValueError("lam must be positive")
    fam = _family(l, lam)
    f = radial_factor_f(r, l, 1.0)
    df = radial_factor_df(r, l, 1.0)
    denom = fam.denominator(r)
    v_lam = 4.0 * f * df / denom - 2.0 * f**4 / denom**2
    v_m = (2 * l + 1) * (2 * l + 3) / (1.0 + r**2) ** 2
    return 0.5 * v_lam / v_m


def index_iso(rho, l, lam, exact=False):
    """Family refractive index.

    Default mode is the first-order form n_M (1 + ratio), which is what the
    figure tables use; exact mode evaluates sqrt(-V_fam) / (l + 1/2) and
    raises where the family potential is non-negative.
    """
    r = _as_rho(rho)
    if not exact:
        return index_maxwell(r, l) * (1.0 + relative_ratio(r, l, lam))
    v_fam = v_family_fisheye(r, l, lam)
    if np.any(v_fam >= 0):
        raise ValueError("family potential is non-negative: exact index undefined")
    return np.sqrt(-v_fam) / (l + 0.5)


def _second_difference(values, h):
    """Five-point second-derivative stencil on a uniform grid (O(h^4))."""
    v = values
    d2 = np.full_like(v, np.nan)
    d2[2:-2] = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]) / (
        12.0 * h * h
    )
    return d2


def find_inflection(l, lam, grid):
    """Smallest rho in (0, 1] where the curvature of index_iso changes sign.

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
    n = index_iso(g, l, lam)
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


def figure_table(l, lam, grid) -> FigureTable:
    """Assemble the four-column table behind the index-family figures."""
    g = _as_rho(grid)
    fam = _family(l, lam)
    n_m = index_maxwell(g, l)
    ratio = relative_ratio(g, l, lam)
    f_bos = radial_factor_bosonic(g, fam)
    return FigureTable(
        grid=g,
        n_maxwell=n_m,
        n_iso=n_m * (1.0 + ratio),
        ratio_minus_one=ratio,
        f_bos_squared=f_bos**2,
        meta=(l, lam),
    )


def figure_table_csv(table: FigureTable) -> str:
    """Render a FigureTable as CSV with 17 significant digits per value."""
    lines = [CSV_HEADER]
    for row in zip(
        table.grid,
        table.n_maxwell,
        table.n_iso,
        table.ratio_minus_one,
        table.f_bos_squared,
    ):
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
