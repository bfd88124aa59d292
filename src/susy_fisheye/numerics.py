"""Independent numerical oracles used to validate every closed form.

The four routines here (adaptive Gauss-Kronrod quadrature, Richardson
finite differences, a Numerov zero-energy march and a sinc
discrete-variable-representation eigensolver) are deliberately
self-contained: they never call into the analytic evaluators they are
meant to check.  The quadrature and the derivative work on whole arrays:
integrate_adaptive refines a batch of intervals together, each to its own
absolute or relative (QUADPACK epsrel) tolerance, and derivative calls f
once on the stencil grid of shape (24,) + x.shape ((25,) + x.shape for
order 2), builds the Richardson tableau a column at a time and picks each
point's row with array operations over the whole tableau.  Both hand f its
points with the cases on rows: row j of the leading axis of
integrate_adaptive's limits, and row j of the second-to-last axis of
derivative's x, lies on row j of the second-to-last axis of the array f
receives, so one call can evaluate a different function per row
(_stacked builds such an f from one function and a parameter set per
row).  verify's I0 check integrates all twelve (kappa, l) sectors in one
quadrature call this way, and its Riccati scan holds the family's lam in
an array that broadcasts against the radii, so each sector is evaluated
once per grid for all of its lam.  f must take an array and return one
of the same shape.  The Numerov march, the one sequential recurrence,
runs on plain floats with its coefficients precomputed and tests for
overflow once at the end; the DVR kinetic matrix is copied from a strided
view of one mirrored row, and a well even about the grid's centre is
solved as two half-size parity blocks.  The module imports nothing else
from the package, and numerov_zero_energy returns the plain array of u on
its grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Values and error estimates of the shape of the limits; total panels."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    subdivisions: int


# --------------------------------------------------------------------------
# Adaptive quadrature: 7-point Gauss / 15-point Kronrod pair, batched over
# intervals, bisecting every panel above its share of the tolerance.
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
    """f over the array x, called once; a result not of x's shape is refused."""
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError(f"f must return an array of shape {x.shape}, got shape {y.shape}")
    return y


def _stacked(fn, cases):
    """f(s) = fn(s, *cases[j]) on row j of the second-to-last axis of s.

    Row j of the limits of integrate_adaptive, and row j of the x of
    derivative (the radii tiled once per case), reach f on that row, so
    one call of either covers every case, each evaluated with its own
    scalar parameters.
    """

    def f(s):
        out = np.empty(s.shape)
        for j, case in enumerate(cases):
            out[..., j, :] = fn(s[..., j, :], *case)
        return out

    return f


def _gk15(f, lo, hi, row, rows):
    """Kronrod values and error estimates of f on the panels [lo[i], hi[i]].

    Panel i lies in row row[i] of the limits.  f is called once, on an
    array of shape (rows, 15 m) whose row j holds the nodes of the panels
    of row j in panel order, m being the most panels in any row, and NaN
    past them; the values there are ignored.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    count = np.bincount(row, minlength=rows)
    # each panel's place among the panels of its row
    order = np.argsort(row, kind="stable")
    slot = np.empty_like(row)
    slot[order] = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    x = np.full((rows, count.max(), _NODES.size), np.nan)
    x[row, slot] = center[:, None] + half[:, None] * _NODES
    y = _eval_vectorized(f, x.reshape(rows, -1)).reshape(x.shape)[row, slot]
    finite = np.isfinite(y).all(axis=1)
    if not finite.all():
        i = np.argmin(finite)
        raise ValueError(f"non-finite integrand value on [{lo[i]}, {hi[i]}]")
    # row sums, not y @ w: BLAS may round a row differently depending on
    # the rows beside it, and a panel's sums must not depend on its batch
    k15 = half * (y * _WEIGHTS_K).sum(axis=1)
    g7 = half * (y * _WEIGHTS_G).sum(axis=1)
    # scaled error estimate in the classic Kronrod style: sharp for smooth
    # integrands, with a round-off floor tied to the absolute integral
    resabs = half * (np.abs(y) * _WEIGHTS_K).sum(axis=1)
    mean = k15 / (hi - lo)
    resasc = half * (np.abs(y - mean[:, None]) * _WEIGHTS_K).sum(axis=1)
    err = np.abs(k15 - g7)
    scaled = (resasc != 0.0) & (err != 0.0)
    ratio = 200.0 * err / np.where(scaled, resasc, 1.0)
    err = np.where(scaled, resasc * np.minimum(1.0, ratio) ** 1.5, err)
    return k15, np.maximum(err, 50.0 * np.finfo(float).eps * resabs)


# panels one interval of integrate_adaptive may reach before it gives up
MAX_SUBDIVISIONS = 2000


def integrate_adaptive(f, a, b, tol=1e-10, rtol=0.0) -> QuadratureResult:
    """Integrate f over [a, b] for every broadcast pair of limits a <= b.

    Each interval is refined on its own until its summed error estimate is
    at most max(tol, rtol |value|), QUADPACK's epsabs/epsrel test.  Every
    round evaluates all new panels of all unfinished intervals with one
    call of f (15 nodes per panel); then, in each unfinished interval,
    every panel whose error exceeds its length share of that target is
    bisected.  Each interval's panels are refined, kept in order and
    summed without reference to the other intervals, so a batched call
    equals the per-interval scalar calls bit for bit.  An interval with
    a = b gives 0 with no panels.

    Limits of two or more dimensions hold one row of intervals per index
    of their leading axis; one-dimensional and scalar limits are a single
    row.  f receives an array of shape (rows, k): row j holds the nodes of
    row j's new panels and NaN past them, and f's values at the NaN
    entries are ignored.  An elementwise f sees the same points however
    they are shaped, and an f that evaluates row j with its own parameters
    (numerics._stacked) integrates a different function per row in one
    call, each row equal bit for bit to a call with that row's limits
    alone, as long as f's value at a node does not depend on the others.

    value and error_estimate have the broadcast shape of a and b (numpy
    floats for scalar limits); subdivisions is the total panel count.  An
    interval still above its target with MAX_SUBDIVISIONS panels, or with
    no panel above its share, raises ConvergenceError with its running
    estimate; a non-finite integrand value raises ValueError, as does a
    negative or NaN tol or rtol.
    """
    for name, value in (("tol", tol), ("rtol", rtol)):
        if not value >= 0:
            raise ValueError(f"{name} must be non-negative, got {name} = {value:g}")
    if tol == rtol == 0:
        raise ValueError("tol and rtol must not both be zero")
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(b < a):
        raise ValueError("integration requires a <= b")
    shape, n = a.shape, a.size
    rows = shape[0] if a.ndim >= 2 else 1
    per_row = n // rows if n else 1
    a, b = a.ravel(), b.ravel()
    value, error = np.zeros(n), np.zeros(n)
    subdivisions = 0
    # the live panels of the unfinished intervals; those without a value
    # yet (val is shorter than lo) are the new ones, at the end
    width = b - a
    owner = np.flatnonzero(width)
    lo, hi = a[owner], b[owner]
    val = err = np.empty(0)
    while lo.size > val.size:
        new = slice(val.size, None)
        new_val, new_err = _gk15(f, lo[new], hi[new], owner[new] // per_row, rows)
        val, err = np.concatenate([val, new_val]), np.concatenate([err, new_err])
        count = np.bincount(owner, minlength=n)
        total = np.bincount(owner, val, n)
        total_err = np.bincount(owner, err, n)
        target = np.maximum(tol, rtol * np.abs(total))
        done = (count > 0) & (total_err <= target)
        value[done], error[done] = total[done], total_err[done]
        subdivisions += int(count[done].sum())
        split = ~done[owner] & (err > target[owner] * (hi - lo) / width[owner])
        stuck = (count > 0) & ~done
        stuck &= (count >= MAX_SUBDIVISIONS) | (np.bincount(owner, split, n) == 0)
        if stuck.any():
            i = np.argmax(stuck)
            raise ConvergenceError(
                f"quadrature error {total_err[i]:.3e} above target {target[i]:.3e} "
                f"after {count[i]} panels on [{a[i]}, {b[i]}]"
            )
        keep = ~done[owner] & ~split
        mid = 0.5 * (lo[split] + hi[split])
        owner = np.concatenate([owner[keep], owner[split], owner[split]])
        lo = np.concatenate([lo[keep], lo[split], mid])
        hi = np.concatenate([hi[keep], mid, hi[split]])
        val, err = val[keep], err[keep]
    return QuadratureResult(value.reshape(shape)[()], error.reshape(shape)[()], subdivisions)


# --------------------------------------------------------------------------
# Derivatives: central differences refined by Richardson extrapolation.
# --------------------------------------------------------------------------

# rows of the step ladder h0, h0/2, ..., h0 / 2^11
_RICHARDSON_ROWS = 12


def derivative(f, x, order=1, h0=None):
    """First or second derivative of f at x, expected accuracy O(h^4) or better.

    Central-difference stencils are evaluated on the step ladder h0, h0/2,
    ..., h0/2^11 and combined in a Richardson (Neville) tableau; the
    diagonal entry with the smallest error estimate is returned.  Steps are
    never allowed to collapse below 1e-10 max(1, |x|).

    x may be a scalar or an array, and h0 a scalar or an array that
    broadcasts against x; the result has the broadcast shape, a numpy float
    for a scalar x.  f is called once, on the stencil grid of shape
    (24,) + shape for that broadcast shape: rows k and 12 + k hold
    x + h0 2^-k and x - h0 2^-k for k = 0..11, and order 2 adds a 25th
    row, x itself.  An elementwise f sees the same points however they are
    shaped, and f may use the shape: for x of shape (cases, n), case j
    lies on row j of the second-to-last axis, so one call can
    differentiate a different function per case, and cases that share
    their expensive part (the lam of one (kappa, l) sector) can compute
    it once per grid.  f must return an array of the grid's shape.  The
    tableau is then built a column at a time over every row and point, and
    the selection runs on the whole tableau at once: per point, a row
    improves when its error estimate is below every earlier one (a NaN
    estimate or a tie does not), the point stops after two rows in a row
    without improvement or at the first step below its floor, and the last
    improving row before the stop is picked (row 0 if none), so each entry
    selects the same row that a scalar call at that point would.
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
    x, h_min = x.ravel(), h_min.ravel()
    # one row per step; halving is exact, so row k holds h0 2^-k bit for bit
    steps = h.ravel() * 0.5 ** np.arange(_RICHARDSON_ROWS)[:, None]
    grid = np.concatenate([x + steps, x - steps] + ([x[None]] if order == 2 else []))
    y = _eval_vectorized(f, grid.reshape(grid.shape[:1] + shape)).reshape(grid.shape)
    plus, minus = y[:_RICHARDSON_ROWS], y[_RICHARDSON_ROWS : 2 * _RICHARDSON_ROWS]
    if order == 1:
        col = (plus - minus) / (2.0 * steps)
    else:
        col = (plus - 2.0 * y[-1] + minus) / (steps * steps)

    # Neville tableau T[i][j] = (4^j T[i][j-1] - T[i-1][j-1]) / (4^j - 1),
    # column j over rows j..11; keep the diagonal and the sub-diagonal
    diag, sub = np.empty_like(col), np.empty_like(col)
    diag[0] = col[0]
    fac = 1.0
    for j in range(1, _RICHARDSON_ROWS):
        fac *= 4.0
        sub[j] = col[1]
        col = (fac * col[1:] - col[:-1]) / (fac - 1.0)
        diag[j] = col[0]
    err = abs(diag[1:] - diag[:-1]) + abs(diag[1:] - sub[1:])

    # the selection over rows 1..11, all rows and points at once; row i is
    # live while neither cut has struck it, and improves when its error is
    # below every earlier one (fmin skips NaN, and a tie does not improve)
    earlier = np.fmin.accumulate(np.concatenate([np.full((1, x.size), math.inf), err[:-1]]))
    improves = err < earlier
    # a NaN step is not below the floor: its rows run and give NaN
    live = np.logical_and.accumulate(~np.less(steps[1:], h_min), axis=0)
    # two idle rows in a row stop the point from the next row on
    idle_pair = ~improves[1:] & ~improves[:-1]
    live[2:] &= ~np.logical_or.accumulate(idle_pair[:-1], axis=0)
    # the last live improving row; none leaves row 0, the bare stencil
    rows = np.arange(1, _RICHARDSON_ROWS)[:, None]
    pick = np.max(np.where(live & improves, rows, 0), axis=0)
    best = diag[pick, np.arange(x.size)]
    return best.reshape(shape)[()]


# --------------------------------------------------------------------------
# Numerov march for -u'' + U u = 0 (zero energy).
# --------------------------------------------------------------------------


def numerov_zero_energy(potential, grid, u0, u1) -> np.ndarray:
    """March -u'' + U(x) u = 0 across a uniform grid from two seed values.

    The grid variable x may be the radius rho or any other coordinate, such
    as ln rho.  Returns the array of u on the grid, which must be uniform:
    every step within 1e-8 of the first (relative), with NaN and infinite
    points refused.  Uses the standard Numerov update (O(h^6) local
    accuracy) on two running floats.  The overflow test runs once, after
    the march: if |u| exceeds 1e300 anywhere past the seeds, which signals
    that the non-normalizable branch has taken over, it raises
    OverflowError naming the first such grid point ("at x = ..."), also
    when an exact zero divisor further on stopped the march.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 3:
        raise ValueError("grid must be one-dimensional with at least 3 points")
    steps = np.diff(g)
    h = steps[0]
    # one comparison, false for a NaN or an infinite step
    if h <= 0 or not np.max(np.abs(steps - h)) <= 1e-8 * h:
        raise ValueError("grid must be uniform and increasing")
    c = 1.0 - (h * h / 12.0) * _eval_vectorized(potential, g)
    # memoryviews hand out the doubles as Python floats without a list of them
    lead = memoryview(12.0 - 10.0 * c[1:-1])
    c = memoryview(c)
    u = [float(u0), float(u1)]
    prev, cur = u
    stopped = None
    try:
        for a, c_prev, c_next in zip(lead, c, c[2:]):
            prev, cur = cur, (a * cur - c_prev * prev) / c_next
            u.append(cur)
    except ZeroDivisionError as exc:
        # an overflow before the zero divisor is reported in its place
        stopped = exc
    u = np.fromiter(u, float, len(u))
    over = np.abs(u[2:]) > 1e300
    if over.any():
        raise OverflowError(
            f"Numerov solution exceeded 1e300 at x = {g[2 + np.argmax(over)]}"
        )
    if stopped is not None:
        raise stopped
    return u


# --------------------------------------------------------------------------
# Bound states of -u'' + V u = E u on the full line: Colbert-Miller sinc DVR
# (J. Chem. Phys. 96, 1982 (1992)), one dense symmetric eigenproblem.
# --------------------------------------------------------------------------

# 117 points (dx = 0.207 on [-12, 12], 0.414 on [-24, 24]) is the smallest
# odd count that meets the oracle's error budget: every bound state of
# the 12 wells of verify.DVR_WELLS (sech^2 ladders, partners, translated
# family, aufbau) lies within 1e-9 of a 401-point grid on the same domain
# (4.1e-10 here), and no verify residual exceeds its 201-point value.  At
# this size the error against the exact spectra, at most 2.3e-9, is set by
# the domain cut on the weakly bound k = 1 states, not by the spacing; below
# 113 points the discretisation error passes 1e-9 (1.6e-9 at 111, 4.1e-8 at
# 101).
# scripts/dvr_grid_scan.py, run with no arguments, prints the scan.  The
# count must be odd: the grid then has a centre point and mirrors onto
# itself, which the parity split of an even well needs.
DVR_POINTS = 117


def _toeplitz(row):
    """row[|i - j|] as a read-only view: the mirrored row's windows, last first."""
    mirrored = np.concatenate([row[:0:-1], row])
    return np.lib.stride_tricks.sliding_window_view(mirrored, row.size)[::-1]


def dvr_bound_states(potential, domain=(-12.0, 12.0)):
    """All eigenvalues below zero of -d^2/dx^2 + V on a uniform grid, ascending.

    The kinetic matrix is the sinc-DVR one, pi^2/3 on the diagonal and
    2 (-1)^k / k^2 at distance k from it, all over dx^2; V sits on the
    diagonal.  The grid is centre + half_width * (i - m) / m for
    i = 0..DVR_POINTS - 1 with m = DVR_POINTS // 2, so its points mirror
    bit for bit about the centre of `domain`, and the well must have
    decayed at both ends.  When the sampled V reads the same backwards (a
    well even about the centre), the matrix splits exactly into an even
    block, T_|p-q| + T_(p+q) on the offsets p, q = 0..m from the centre
    with the centre row and column scaled by sqrt(1/2), and an odd block,
    T_|p-q| - T_(p+q) on p, q = 1..m, each with V on its diagonal; the two
    half-size blocks are solved instead of the full matrix.  Any other V
    is solved as the full matrix.  The free-particle matrix is positive
    definite, so a flat potential gives [], and the box states of the
    continuum stay above zero (the lowest at 4.9e-3 for the half-width
    wells on [-24, 24], 2.0e-2 for the unit-width wells on [-12, 12]), so the
    E < 0 cut keeps only bound states.
    """
    x_min, x_max = (float(b) for b in domain)
    if not (math.isfinite(x_min) and math.isfinite(x_max) and x_min < x_max):
        raise ValueError(f"domain must be finite with x_min < x_max, got {domain!r}")
    m = DVR_POINTS // 2
    half_width = 0.5 * (x_max - x_min)
    x = 0.5 * (x_min + x_max) + half_width * (np.arange(DVR_POINTS) - m) / m
    v = _eval_vectorized(potential, x)
    if not np.all(np.isfinite(v)):
        raise ValueError("potential must be finite on the domain")
    dx = half_width / m
    k = np.arange(1, DVR_POINTS)
    row = np.empty(DVR_POINTS)
    row[0] = math.pi**2 / 3.0
    row[1:] = 2.0 * (-1.0) ** k / (k * k)
    row /= dx * dx
    if np.array_equal(v, v[::-1]):
        # even states in the basis e_0, (e_p + e_-p)/sqrt(2); odd ones in (e_p - e_-p)/sqrt(2)
        toeplitz = _toeplitz(row[: m + 1])
        hankel = np.lib.stride_tricks.sliding_window_view(row, m + 1)
        even = toeplitz + hankel
        even[0] *= math.sqrt(0.5)
        even[:, 0] *= math.sqrt(0.5)
        even[np.diag_indices(m + 1)] += v[m:]
        odd = toeplitz[1:, 1:] - hankel[1:, 1:]
        odd[np.diag_indices(m)] += v[m + 1 :]
        energies = np.sort(
            np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)])
        )
    else:
        h = _toeplitz(row).copy()
        h[np.diag_indices(DVR_POINTS)] += v
        energies = np.linalg.eigvalsh(h)
    return energies[energies < 0.0].tolist()
