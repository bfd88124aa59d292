"""Independent numerical oracles used to validate every closed form.

The four routines here (adaptive Gauss-Kronrod quadrature, Richardson
finite differences, a Numerov zero-energy march and a sinc
discrete-variable-representation eigensolver) are deliberately
self-contained: they never call into the analytic evaluators they are
meant to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .do_core import Profile

__all__ = [
    "ConvergenceError",
    "StepUnderflowError",
    "QuadratureResult",
    "integrate_adaptive",
    "derivative",
    "numerov_zero_energy",
    "dvr_bound_states",
]


class ConvergenceError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


class StepUnderflowError(RuntimeError):
    """Finite-difference step below the resolvable floor."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions: int


# --------------------------------------------------------------------------
# Adaptive quadrature: 7-point Gauss / 15-point Kronrod pair with bisection
# of the worst panel until the summed error estimate meets the tolerance.
# --------------------------------------------------------------------------

_XGK_HALF = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
_WGK_HALF = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
)
_WGK_CENTER = 0.209482141084728
_WG_HALF = (0.129484966168870, 0.279705391489277, 0.381830050505119)
_WG_CENTER = 0.417959183673469

_NODES = np.concatenate(
    [-np.array(_XGK_HALF), [0.0], np.array(_XGK_HALF)[::-1]]
)
_WEIGHTS_K = np.concatenate(
    [np.array(_WGK_HALF), [_WGK_CENTER], np.array(_WGK_HALF)[::-1]]
)
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[[1, 3, 5]] = _WG_HALF
_WEIGHTS_G[7] = _WG_CENTER
_WEIGHTS_G[[9, 11, 13]] = _WG_HALF[::-1]


def _eval_vectorized(f, x):
    """Call f on an array, falling back to an elementwise loop."""
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.array([float(f(xi)) for xi in x])


def _gk15(f, a, b):
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = _eval_vectorized(f, center + half * _NODES)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"non-finite integrand value on [{a}, {b}]")
    k15 = half * float(_WEIGHTS_K @ y)
    g7 = half * float(_WEIGHTS_G @ y)
    # scaled error estimate in the classic Kronrod style: sharp for smooth
    # integrands, with a round-off floor tied to the absolute integral
    resabs = half * float(_WEIGHTS_K @ np.abs(y))
    resasc = half * float(_WEIGHTS_K @ np.abs(y - k15 / (b - a)))
    err = abs(k15 - g7)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * np.finfo(float).eps * resabs)
    return k15, err


def integrate_adaptive(f, a, b, tol=1e-10, max_subdivisions=2000) -> QuadratureResult:
    """Integrate f over [a, b] to the requested absolute tolerance.

    The worst panel (largest |K15 - G7| discrepancy) is bisected until the
    summed error estimate drops below tol; a ConvergenceError reports the
    running estimate if the subdivision budget runs out first.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if b < a:
        raise ValueError("integration requires a <= b")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    panels = [(_gk15(f, a, b) + (a, b))]
    while True:
        total_err = math.fsum(p[1] for p in panels)
        if total_err <= tol:
            value = math.fsum(p[0] for p in panels)
            return QuadratureResult(value, total_err, len(panels))
        if len(panels) >= max_subdivisions:
            raise ConvergenceError(
                f"quadrature error {total_err:.3e} above tol {tol:.3e} "
                f"after {len(panels)} panels"
            )
        worst = max(range(len(panels)), key=lambda i: panels[i][1])
        _, _, pa, pb = panels.pop(worst)
        mid = 0.5 * (pa + pb)
        panels.append(_gk15(f, pa, mid) + (pa, mid))
        panels.append(_gk15(f, mid, pb) + (mid, pb))


# --------------------------------------------------------------------------
# Derivatives: central differences refined by Richardson extrapolation.
# --------------------------------------------------------------------------


def derivative(f, x, order=1, h0=None):
    """First or second derivative of f at x, expected accuracy O(h^4) or better.

    Central-difference stencils are evaluated on the step ladder h0, h0/2,
    ... and combined in a Richardson (Neville) tableau; the diagonal entry
    with the smallest error estimate is returned.  Steps are never allowed
    to collapse below 1e-10 max(1, |x|).

    x may be a scalar or an array, and h0 a scalar or an array that
    broadcasts against x.  f is called with whole arrays of the broadcast
    shape (x + h and x - h once per row, x once for order 2) and the result
    has that shape.  For a scalar x those arguments and the result are numpy
    floats, which are floats, so a scalar-only f such as math.sin works.
    The tableau runs elementwise: each point keeps its own best row, error
    estimate, stop counter (two rows in a row without improvement) and step
    floor, and a point that has stopped keeps its result while the others
    continue, so each entry selects the same row that a scalar call at that
    point would.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    x = np.asarray(x, dtype=float)
    scale = np.fmax(1.0, np.abs(x))
    h_min = 1e-10 * scale
    if h0 is None:
        h0 = 0.05 * scale
    x, h, h_min = np.broadcast_arrays(x, np.asarray(h0, dtype=float), h_min)
    if np.any(h <= 0):
        raise ValueError("h0 must be positive")
    if np.any(h < h_min):
        i = np.unravel_index(np.argmax(h < h_min), h.shape)
        raise StepUnderflowError(f"step {h[i]} below floor {h_min[i]} at x = {x[i]}")
    shape = x.shape
    x = x[()]  # a 0-d x becomes a numpy float, like x + h

    if order == 1:
        stencil = lambda h: (f(x + h) - f(x - h)) / (2.0 * h)
    else:
        fx = f(x)
        stencil = lambda h: (f(x + h) - 2.0 * fx + f(x - h)) / (h * h)

    first = prev = None
    best = np.full(shape, math.nan)
    best_err = np.full(shape, math.inf)
    worse = np.zeros(shape, dtype=int)
    live = np.ones(shape, dtype=bool)
    for _ in range(12):
        # a NaN step is not below the floor: its rows run and give NaN
        live &= ~np.less(h, h_min)
        if not live.any():
            break
        row = [stencil(h)]
        if prev is None:
            first = row[0]
        else:
            fac = 1.0
            for j in range(len(prev)):
                fac *= 4.0
                row.append((fac * row[j] - prev[j]) / (fac - 1.0))
            err = abs(row[-1] - prev[-1]) + abs(row[-1] - row[-2])
            better = live & (err < best_err)
            best = np.where(better, row[-1], best)
            best_err = np.where(better, err, best_err)
            worse = np.where(better, 0, worse + live)
            live &= worse < 2
        prev = row
        h = h * 0.5
    # single row: no extrapolation possible, return the bare stencil
    best = np.where(np.isnan(best), first, best)
    return best[()]


# --------------------------------------------------------------------------
# Numerov march for -u'' + U u = 0 (zero energy).
# --------------------------------------------------------------------------


def numerov_zero_energy(potential, grid, u0, u1) -> Profile:
    """March -u'' + U(rho) u = 0 across a uniform grid from two seed values.

    Uses the standard Numerov update (O(h^6) local accuracy); raises
    OverflowError once |u| exceeds 1e300, which signals that the
    non-normalizable branch has taken over.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 3:
        raise ValueError("grid must be one-dimensional with at least 3 points")
    steps = np.diff(g)
    h = steps[0]
    if h <= 0 or not np.allclose(steps, h, rtol=1e-8, atol=0.0):
        raise ValueError("grid must be uniform and increasing")
    u_pot = _eval_vectorized(potential, g)
    c = (1.0 - (h * h / 12.0) * u_pot).tolist()
    u = [0.0] * g.size
    u[0], u[1] = float(u0), float(u1)
    for i in range(1, g.size - 1):
        u[i + 1] = ((12.0 - 10.0 * c[i]) * u[i] - c[i - 1] * u[i - 1]) / c[i + 1]
        if abs(u[i + 1]) > 1e300:
            raise OverflowError(
                f"Numerov solution exceeded 1e300 at rho = {g[i + 1]}"
            )
    return Profile(g, np.array(u))




# --------------------------------------------------------------------------
# Bound states of -u'' + V u = E u on the full line: Colbert-Miller sinc DVR
# (J. Chem. Phys. 96, 1982 (1992)), one dense symmetric eigenproblem.
# --------------------------------------------------------------------------

# 201 points resolve unit-width sech^2 wells on [-12, 12] (dx = 0.12) and the
# half-width aufbau wells on [-24, 24] to better than 1e-8.
DVR_POINTS = 201


def dvr_bound_states(potential, domain=(-12.0, 12.0)):
    """All eigenvalues below zero of -d^2/dx^2 + V on a uniform grid, ascending.

    The kinetic matrix is the sinc-DVR one, pi^2/3 on the diagonal and
    2 (-1)^k / k^2 at distance k from it, all over dx^2; V sits on the
    diagonal.  The grid spans `domain` with DVR_POINTS points, so the well
    must have decayed at both ends.  The free-particle matrix is positive
    definite, so a flat potential gives [], and the box states of the
    continuum stay above zero (the lowest at 5e-3 for the half-width wells
    on [-24, 24], 2e-2 for the unit-width wells on [-12, 12]), so the
    E < 0 cut keeps only bound states.
    """
    x_min, x_max = (float(b) for b in domain)
    if not (math.isfinite(x_min) and math.isfinite(x_max) and x_min < x_max):
        raise ValueError(f"domain must be finite with x_min < x_max, got {domain!r}")
    x = np.linspace(x_min, x_max, DVR_POINTS)
    v = _eval_vectorized(potential, x)
    if not np.all(np.isfinite(v)):
        raise ValueError("potential must be finite on the domain")
    dx = x[1] - x[0]
    k = np.arange(1, DVR_POINTS)
    row = np.empty(DVR_POINTS)
    row[0] = math.pi**2 / 3.0
    row[1:] = 2.0 * (-1.0) ** k / (k * k)
    row /= dx * dx
    h = row[np.abs(np.arange(DVR_POINTS)[:, None] - np.arange(DVR_POINTS))]
    h[np.diag_indices(DVR_POINTS)] += v
    energies = np.linalg.eigvalsh(h)
    return energies[energies < 0.0].tolist()
