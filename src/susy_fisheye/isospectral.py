"""One-parameter strictly isospectral bosonic family on the half line.

Built from the general Riccati solution: with f the nodeless radial factor
and I0(rho) = int_0^rho f^2, the family members are

    V_gen  = f^-2 (lam + I0)                      (general Riccati solution)
    W_gen  = W + f^2 / (I0 + lam)                 (general superpotential)
    U_bos  = U- - 4 f f' / (I0 + lam) + 2 f^4 / (I0 + lam)^2
    f_bos  = f / (I0 + lam)                       (damped radial factor)

I0 is chosen in one place, i0: a closed form for kappa = 1, and for every
other kappa the incomplete beta function

    I0 = B_x(a, b) / 2 kappa,  x = rho^2k / (1 + rho^2k),  a = (2l+3)/2k,  b = (2l-1)/2k,

which _i0_beta sums as a terminating sum of b positive terms where b is a
positive integer (kappa = 1/2 at every l >= 1, and kappa = 1/4 or 1/6), and
as power series everywhere else.  The closed form takes rho and forms the
angle beta = arctan(rho) inside, through the substitution rho = tan(beta),
which turns f^2 drho into sin(beta)^(2l+2) cos(beta)^(2l-2) dbeta, the
integrand it integrates.  Both routes are cross-checked against
i0_quadrature, the oracle, which integrates f^2 over a fixed dyadic ladder
of radii plus one tail per point, for any number of (kappa, l) sectors,
all in one batched Gauss-Kronrod call at relative tolerance 1e-12; only
verify and the tests call it.
"""

from __future__ import annotations

import math

import numpy as np

from .do_core import (
    DoParams,
    _as_rho,
    _check_kappa,
    _check_l,
    _fractions,
    radial_factor_df,
    radial_factor_f,
    superpotential_w,
    u_minus,
)
from .numerics import _stacked, integrate_adaptive

__all__ = ["i0", "i0_quadrature", "i0_closed_one", "family_columns"]


def _f_squared(s, l, kappa):
    """Quadrature integrand f^2, written to be finite down to s = 0."""
    t = s ** (2.0 * kappa)
    return s ** (2 * l + 2) * (1.0 + t) ** (-(2 * l + 1) / kappa)


# The fixed dyadic ladder of i0_quadrature starts at 2^-40, below RHO_MIN.
_LADDER_BOTTOM = -40


def i0_quadrature(rho, l, kappa):
    """Integral of f^2 from 0 to rho by adaptive quadrature (the oracle).

    l and kappa broadcast to a sector shape S, and the result has the
    shape S + rho.shape: every (kappa, l) sector at every radius, each
    sector's integrand evaluated with its own scalar l and kappa, and all
    sectors in one integrate_adaptive call, one row of intervals per
    sector.  With 2^k <= rho < 2^(k+1), I0(rho) = C[k] + int_{2^k}^rho f^2,
    where C is the cumulative sum of the integrals over the fixed ladder
    [0, 2^-40], [2^-40, 2^-39], ... .  The ladder panels resolve the
    s <~ 2 structure of f^2 at every rho, and since the ladder depends on
    neither the query nor the other sectors, a scalar call equals the
    matching element of an array call bit for bit.  The ladder and the
    per-point tails are integrated at relative tolerance 1e-12.  f^2 must
    be a normal float64 on [0, rho]: rho^2 overflows past 1.3e154 at
    l = 0, and (1 + rho^2k)^(-(2l+1)/k) underflows past about
    10^(308/(4l+2)) at l >= 1 (1e22 at l = 3), where the oracle raises.
    """
    r = _as_rho(rho)
    ls, kappas = np.broadcast_arrays(l, kappa)
    sectors = list(zip(ls.ravel().tolist(), kappas.ravel().tolist()))
    for sector_l, sector_kappa in sectors:
        _check_l(sector_l)
        _check_kappa(sector_kappa)
    k = np.frexp(r)[1] - 1
    knots = np.ldexp(1.0, np.arange(_LADDER_BOTTOM, k.max() + 1))
    lo = np.concatenate([[0.0], knots[:-1], np.ldexp(1.0, k).ravel()])
    hi = np.concatenate([knots, r.ravel()])
    shape = (len(sectors), lo.size)
    result = integrate_adaptive(
        _stacked(_f_squared, sectors),
        np.broadcast_to(lo, shape),
        np.broadcast_to(hi, shape),
        tol=0.0,
        rtol=1e-12,
    )
    ladder = np.cumsum(result.value[:, : knots.size], axis=1)
    tails = result.value[:, knots.size :]
    return (ladder[:, k.ravel() - _LADDER_BOTTOM] + tails).reshape(ls.shape + r.shape)[()]


def _sin_power_integral(m, x, sines):
    """int_0^x sin^(2m) u du as the standard finite multiple-angle sum.

    sines[j - 1] is sin(2j x), for j = 1..m at least.
    """
    out = math.comb(2 * m, m) * x
    for k in range(m):
        out = out + (-1.0) ** (m - k) * math.comb(2 * m, k) * sines[m - k - 1] / (m - k)
    return out / 4.0**m


def i0_closed_one(rho, l):
    """Closed form of I0 for kappa = 1: the integral of sin^(2l+2) cos^(2l-2).

    The integral runs over [0, beta], beta = arctan(rho).  l = 0 reduces to
    rho - beta.  For l >= 1 the integrand is written as
    (sin 2b / 2)^(2l-2) sin^4 b and expanded into even sine powers of 2b
    plus one odd cos(2b) term, each with an elementary antiderivative; every
    term vanishes at beta = 0 so no constant is needed.
    """
    r = _as_rho(rho)
    b = np.arctan(r)
    if l == 0:
        return r - b
    x = 2.0 * b
    # sin(2j x) for j = 1..l, shared by both multiple-angle sums
    sines = [np.sin((2 * j) * x) for j in range(1, l + 1)]
    s_lm1 = 0.5 * _sin_power_integral(l - 1, x, sines)
    s_l = 0.5 * _sin_power_integral(l, x, sines)
    edge = np.sin(x) ** (2 * l - 1) / (2 * l - 1)
    return (2.0 * s_lm1 - s_l - edge) / 4.0**l


# Largest b = (2l-1)/2 kappa that _i0_beta sums as the terminating sum.
# Its cost grows with b and the series' barely: scripts/i0_route_scan.py
# measures the sum faster than the series at 50, 300 and 600 radii for
# every integer b up to 576; past that the two trade places with the
# host's noise, and at b = 1152 the series is faster at every size.
_MAX_FINITE_TERMS = 512


def _i0_beta(rho, l, kappa):
    """I0 = B_x(a, b) / 2 kappa, x = rho^2k / (1 + rho^2k), a = (2l+3)/2k, b = (2l-1)/2k.

    The terminating sum (_i0_finite) where b is a positive integer of at
    most _MAX_FINITE_TERMS, the power series (_i0_series) everywhere else.
    """
    r = _as_rho(rho)
    _check_kappa(kappa)
    n = _finite_terms(l, kappa)
    if n:
        return _i0_finite(r, (2 * l + 3) / (2.0 * kappa), n, kappa)
    return _i0_series(r, l, kappa)


def _finite_terms(l, kappa):
    """b = (2l-1)/2 kappa where _i0_beta takes the terminating sum, else 0."""
    b = (2 * l - 1) / (2.0 * kappa)
    return int(b) if 1.0 <= b <= _MAX_FINITE_TERMS and b.is_integer() else 0


def _i0_finite(r, a, n, kappa):
    """I0 = x^a sum_(j<n) d_j y^j on the radii r, for b = n a positive integer.

    I_x(a, n) = x^a sum_(j<n) (a)_j / j! y^j, y = 1 - x, follows from
    I_x(a, 1) = x^a by DLMF 8.17.21 applied n - 1 times, and
    B(a, n) = (n-1)! / (a)_n, so d_j = (a)_j / j! B(a, n) / 2 kappa.  The
    d_j are formed downwards from d_(n-1) = 1 / (2 kappa (a+n-1)) by
    d_(j-1) = d_j j / (a+j-1), so none overflows, and all n terms are
    positive.  x and y come from do_core._fractions, so I0 tends to
    B(a, n) / 2 kappa, and a scalar call equals its array element.
    """
    d = [0.5 / (kappa * (a + n - 1.0))]
    for j in range(n - 1, 0, -1):
        d.append(d[-1] * j / (a + j - 1.0))
    x, y = _fractions(r, kappa)
    total = d[0]
    for term in d[1:]:
        total = total * y + term
    return (np.power(x, a) * total)[()]


# The length past which _series refuses a series: far above the few
# thousand terms any kappa needs, and small enough that a series that
# never falls is refused before it takes more than a few tens of MB.
_MAX_TERMS = 2**20


def _series(u, v, bound, least=1):
    """Terms d_n = c_n bound^n of sum c_n z^n, with c_0 = 1 and c_(n+1) = c_n (u+n)/(v+n).

    The series is evaluated as sum d_n (z/bound)^n, so no term overflows.
    The list is cut once |d_n| falls and drops below 1e-17 of the sum of
    the |d_n| so far, and has at least `least` entries.  The cut depends on
    (u, v, bound) alone, never on the radii, so a scalar call equals the
    matching element of an array call.  A series not cut within _MAX_TERMS
    terms is refused.
    """
    size = max(128, 2 * least)
    while True:
        n = np.arange(size - 1.0)
        d = np.cumprod(np.concatenate([[1.0], (u + n) / (v + n) * bound]))
        mag = np.abs(d)
        cut = (mag[1:] < mag[:-1]) & (mag[1:] < 1e-17 * np.cumsum(mag)[1:])
        if cut.any():
            return d[: max(cut.argmax() + 2, least)]
        if size >= _MAX_TERMS:
            raise ValueError(
                f"the I0 series does not converge within {size} terms "
                f"(u = {u:g}, v = {v:g}, bound = {bound:g})"
            )
        size *= 2


def _horner(coeffs, column, w):
    """sum_n coeffs[n, column] w^n at each point, by Horner's rule.

    Each point takes the series of its column, so both branches run in one
    pass; that is about 5 % faster per quadrature-kappa request than one
    pass per branch, whose loop overhead dominates on small grids.
    """
    total = coeffs[-1][column]
    for row in coeffs[-2::-1]:
        total *= w
        total += row[column]
    return total


# Largest factor by which the part of I0 above the switch may cancel, and
# the smaller one the complement (l >= 1) may cancel by below kappa = 1/4
# (scripts/i0_route_scan.py).
_MAX_CANCELLATION = 1e3
_MAX_CANCELLATION_SMALL_KAPPA = 10.0


def _i0_series(r, l, kappa):
    """I0 = B_x(a, b) / 2 kappa by power series on the radii r, for kappa > 0 where a and b are finite.

    r is a float array of radii at least RHO_MIN, as _as_rho returns it.
    x = rho^2k / (1 + rho^2k), a = (2l+3)/2k and b = (2l-1)/2k (DLMF 8.17).
    log x and log y, y = 1 - x, come from ln rho through logaddexp, so
    neither is rounded near 0 or 1.  The radii split at x_s = 1 - y_s:

    - x <= x_s: B_x(a, b) = x^a y^b / a  sum p_n x^n, the series of
      2F1(a+b, 1; a+1; x) (DLMF 8.17.8), whose terms are all positive.
    - x > x_s, b > 0 (l >= 1): the complement B(a, b) - B_y(b, a), with
      B_y(b, a) = x^a y^b / b  sum r_n y^n, the positive series of
      2F1(a+b, 1; b+1; y), and B(a, b) = B_xs(a, b) + B_ys(b, a) from both
      series at the switch.
    - x > x_s, b < 0 (l = 0): B_x = B_xs(a, b) + int_y^ys v^(b-1) (1-v)^(a-1) dv,
      with (1-v)^(a-1) = sum c_k v^k, c_k = (1-a)_k / k!, integrated term
      by term.  The term whose power s = b + k is nearest 0, where B(a, b)
      and the complement series of the incomplete beta have their poles,
      is kept whole as c_k ys^s (1 - (y/ys)^s) / s through expm1; at s = 0
      (kappa = 1/2m) it is the log term c_k ln(ys/y).  So b needs no
      raising, and kappa near 1/2m loses nothing.

    x_s = 1/2 unless the part above it would cancel by more than
    _MAX_CANCELLATION, which happens only below kappa = 1/4.  At l >= 1 the
    complement cancels by B(a, b) / B_xs(a, b), and below kappa = 1/4 its
    bound is _MAX_CANCELLATION_SMALL_KAPPA; past the bound, x_s moves to
    the mode (a+1)/(a+b+2), where both series fall from their first term
    and the factor is at most 6 (I_xs(a, b) >= 1/6 for every l >= 1).  At
    l = 0 the alternating c_k cancel by ((1+ys)/(1-ys))^(a-1), and y_s
    drops to the first 2^-j that keeps it within the bound.  Where no float
    radius reaches the switch (small kappa), every radius takes the x
    series, cut at the x of the largest float.  Each series is a Horner
    polynomial with its terms fixed by (a, b) at its bound, evaluated on its
    radii by elementwise numpy operations.  Below about kappa = 1e-308 a
    overflows, and above about 1e305 so does rho^2k at the largest float;
    such kappa are refused.
    """
    a, b = (2 * l + 3) / (2.0 * kappa), (2 * l - 1) / (2.0 * kappa)
    t_max = 2.0 * kappa * math.log(np.finfo(float).max)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(t_max)):
        raise ValueError(f"kappa is beyond the range of the I0 series, got kappa = {kappa:g}")
    log_x_max = t_max - float(np.logaddexp(0.0, t_max))
    j = 1
    if b < 0:
        # smallest j with ((1 + 2^-j) / (1 - 2^-j))^(a-1) <= _MAX_CANCELLATION
        while (a - 1.0) * 2.0 * math.atanh(0.5**j) > math.log(_MAX_CANCELLATION):
            j += 1
    y_s = 0.5**j
    while True:
        split = math.log1p(-y_s) < log_x_max
        x_s = 1.0 - y_s if split else math.exp(log_x_max)
        p = _series(a + b, a + 1.0, x_s)
        log_low = a * math.log(x_s) + b * math.log1p(-x_s) + math.log(math.fsum(p) / a)
        if b < 0 or not split or y_s < 0.5:
            break
        log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        bound = _MAX_CANCELLATION if kappa >= 0.25 else _MAX_CANCELLATION_SMALL_KAPPA
        if log_beta - log_low <= math.log(bound):
            break
        # the mode of the beta density; 1 - (1 - y) makes x_s + y_s = 1 exactly
        y_s = 1.0 - (1.0 - (b + 1.0) / (a + b + 2.0))
    t = 2.0 * kappa * np.log(r)
    log_y = -np.logaddexp(0.0, t)
    log_x = t + log_y
    low = log_x <= math.log(x_s) if split else np.full(r.shape, True)
    inv2k = 0.5 / kappa  # I0 = B_x / 2 kappa
    pole = 0.0
    if not split:
        q, top = np.zeros(1), 0.0
        exponent = a * log_x + b * log_y
        scale = inv2k / a
    elif b < 0:
        k_pole = round(-b)
        c = _series(1.0 - a, 1.0, y_s, least=k_pole + 1)
        k = np.arange(c.size)
        q = c / np.where(k == k_pole, np.inf, b + k)
        top = math.exp(log_low) + y_s**b * math.fsum(q)
        exponent = np.where(low, a * log_x, 0.0) + b * log_y
        scale = np.where(low, inv2k / a, -inv2k)
        s = b + k_pole
        log_w = log_y - math.log(y_s)
        if s == 0:
            pole = -c[k_pole] * y_s**b * inv2k * log_w
        else:
            pole = (-c[k_pole] * y_s**b * inv2k / s) * np.expm1(s * log_w)
        pole = np.where(low, 0.0, pole)
    else:
        q = _series(a + b, b + 1.0, y_s)
        top = x_s**a * y_s**b * (math.fsum(p) / a + math.fsum(q) / b)
        exponent = a * log_x + b * log_y
        scale = np.where(low, inv2k / a, -inv2k / b)
    coeffs = np.zeros((max(p.size, q.size), 2))
    coeffs[: p.size, 0] = p
    coeffs[: q.size, 1] = q
    w = np.exp(np.where(low, log_x - math.log(x_s), log_y - math.log(y_s)))
    total = _horner(coeffs, np.where(low, 0, 1), w)
    value = np.where(low, 0.0, top * inv2k) + np.exp(exponent) * (scale * total) + pole
    return value[()]


def i0(rho, l, kappa):
    """I0(rho) = int_0^rho f^2: the closed form at kappa = 1, else _i0_beta.

    _i0_beta takes the terminating sum of b = (2l-1)/2 kappa positive terms
    where b is a positive integer up to _MAX_FINITE_TERMS (kappa = 1/2 at
    every l >= 1, 1 to 9 terms at l = 1..5), and power series everywhere
    else (l = 0 and every b that is not an integer; 49 to 81 terms for
    kappa from 1/2 to 2).  On logspace(1e-3, 50), l = 1..5, the sum is
    within 7.4e-15 relative of i0_quadrature at kappa = 1/2 and within
    1.9e-14 at kappa = 1/4 and 1/6, at 6 to 30 us per kappa = 1/2 call on
    50 to 600 radii, where the series takes 160 to 350 us
    (scripts/i0_route_scan.py).  The series' relative error is below 1e-12
    for kappa >= 1/4 (tested), and at most 6.8e-14 at the nodeless
    kappa = l/k < 1/4, k <= 20 l (at l = 5, kappa = 5/22; 3.0e-14 at l = 3,
    kappa = 3/49).
    I0 takes kappa from about 1e-308 to 1e305 (the series refuses the kappa
    where (2l+3)/2 kappa or rho^2k at the largest float overflows) and is
    finite for every rho from RHO_MIN to 1e307, and to the largest float at
    kappa = 1: it grows like rho at l = 0 and tends to B(a, b) / 2 kappa at
    l >= 1.  At small rho, I0 ~ rho^(2l+3) / (2l+3) can fall below the
    smallest subnormal and read 0: 4.8e-409 at rho = 0.01, l = 100.  With
    lam = 1e-300, I0 + lam is then lam, and both (I0 + lam)^2 and f^4
    underflow, so the family term 2 f^4 / (I0 + lam)^2 is 0/0 (NaN).
    l must be a non-negative integer on every route.
    """
    _check_l(l)
    if kappa == 1.0:
        return i0_closed_one(rho, l)
    return _i0_beta(rho, l, kappa)


def _general(r, l, kappa, lam):
    """(V_gen, W_gen, W) from one evaluation of f, I0 and W on the grid r.

    lam is a float or an array that broadcasts against r, so every lam of
    a (kappa, l) sector shares the one f, I0 and W; each element is
    computed by the same operations as for a scalar lam.
    """
    f2 = radial_factor_f(r, l, kappa) ** 2
    denom = i0(r, l, kappa) + lam
    w = superpotential_w(r, l, kappa)
    return denom / f2, w + f2 / denom, w


def _family_terms(r, l, kappa, lam):
    """f, f_bos = f/(I0+lam), 4 f f'/(I0+lam) and 2 f^4/(I0+lam)^2 on one grid.

    The one place a family evaluates f, f' and I0; every family column is
    built from these four arrays.  lam is a float or an array that
    broadcasts against r: a (kappa, l) sector is evaluated once per grid
    for all of its lam, and each element is computed by the same
    operations as for a scalar lam.
    """
    # f' first: it dies on return, and with the kept f allocated after it a
    # large table leaves less of the heap fragmented (lower peak RSS).
    df = radial_factor_df(r, l, kappa)
    f = radial_factor_f(r, l, kappa)
    denom = i0(r, l, kappa) + lam
    return f, f / denom, 4.0 * f * df / denom, 2.0 * f**4 / denom**2


def _u_bos(u_m, terms):
    """U_bos = U- - 4 f f'/(I0+lam) + 2 f^4/(I0+lam)^2 from U- and _family_terms."""
    return u_m - terms[2] + terms[3]


def family_columns(rho, params: DoParams):
    """The columns (U-, U_bos, f, f_bos) on one grid, from one f, f', I0 and U-."""
    r = _as_rho(rho)
    u_m = u_minus(r, params.l, params.kappa)
    terms = _family_terms(r, params.l, params.kappa, params.lam)
    return u_m, _u_bos(u_m, terms), terms[0], terms[1]
