"""One-parameter strictly isospectral bosonic family on the half line.

Built from the general Riccati solution: with f the nodeless radial factor
and I0(rho) = int_0^rho f^2, the family members are

    V_gen  = f^-2 (lam + I0)                      (general Riccati solution)
    W_gen  = W + f^2 / (I0 + lam)                 (general superpotential)
    U_bos  = U- - 4 f f' / (I0 + lam) + 2 f^4 / (I0 + lam)^2
    f_bos  = f / (I0 + lam)                       (damped radial factor)

I0 is chosen in one place, i0: a closed form for kappa = 1/2 and kappa = 1,
adaptive quadrature for every other kappa.  The closed forms take rho and
form the angle beta = arctan(rho^kappa) inside, through the substitution
rho = tan(beta)^(1/kappa), which turns f^2 drho into

    (1/kappa) sin(beta)^((2l+3-kappa)/kappa) cos(beta)^((2l-1-kappa)/kappa) dbeta.

Both closed forms below are antiderivatives of exactly this integrand and
are cross-checked against adaptive quadrature of f^2.  The quadrature
route, i0_quadrature, integrates f^2 over a fixed dyadic ladder of radii
plus one tail per point, all in one batched Gauss-Kronrod call at
relative tolerance 1e-12.
"""

from __future__ import annotations

import math

import numpy as np

from .do_core import (
    DoParams,
    _as_rho,
    _check_kappa,
    radial_factor_df,
    radial_factor_f,
    superpotential_w,
    u_minus,
)
from .numerics import integrate_adaptive
from .specfun import binomial

__all__ = [
    "i0",
    "i0_quadrature",
    "i0_closed_half",
    "i0_closed_one",
    "v_general",
    "superpotential_general",
    "family_columns",
    "u_bosonic_family",
    "radial_factor_bosonic",
]


def _f_squared(s, l, kappa):
    """Quadrature integrand f^2, written to be finite down to s = 0."""
    t = s ** (2.0 * kappa)
    return s ** (2 * l + 2) * (1.0 + t) ** (-(2 * l + 1) / kappa)


# The fixed dyadic ladder of i0_quadrature starts at 2^-40, below RHO_MIN.
_LADDER_BOTTOM = -40


def i0_quadrature(rho, l, kappa):
    """Integral of f^2 from 0 to rho by adaptive quadrature (the oracle).

    With 2^k <= rho < 2^(k+1), I0(rho) = C[k] + int_{2^k}^rho f^2, where C
    is the cumulative sum of the integrals over the fixed ladder [0, 2^-40],
    [2^-40, 2^-39], ... .  The ladder panels resolve the s <~ 2 structure of
    f^2 at every rho, and since the ladder does not depend on the query, a
    scalar call equals the matching element of an array call bit for bit.
    The ladder and the per-point tails are one integrate_adaptive call at
    relative tolerance 1e-12.  f^2 must be a normal float64 on [0, rho]:
    rho^2 overflows past 1.3e154 at l = 0, and (1 + rho^2k)^(-(2l+1)/k)
    underflows past about 10^(308/(4l+2)) at l >= 1 (1e22 at l = 3), where
    the oracle raises.
    """
    r = _as_rho(rho)
    _check_kappa(kappa)
    k = np.frexp(r)[1] - 1
    knots = np.ldexp(1.0, np.arange(_LADDER_BOTTOM, k.max() + 1))
    result = integrate_adaptive(
        lambda s: _f_squared(s, l, kappa),
        np.concatenate([[0.0], knots[:-1], np.ldexp(1.0, k).ravel()]),
        np.concatenate([knots, r.ravel()]),
        tol=0.0,
        rtol=1e-12,
    )
    ladder = np.cumsum(result.value[: knots.size])
    tails = result.value[knots.size :].reshape(r.shape)
    return (ladder[k - _LADDER_BOTTOM] + tails)[()]


def _beta(rho, kappa):
    """beta = arctan(rho^kappa), refusing the radii where it rounds to pi/2."""
    r = _as_rho(rho)
    beta = np.arctan(r**kappa)
    top = beta >= 0.5 * math.pi
    if top.any():
        raise ValueError(
            f"beta must lie in [0, pi/2), but arctan(rho^kappa) rounds to pi/2 at "
            f"rho = {float(r[top][0])}: beyond the range of the closed form of I0"
        )
    return beta


def i0_closed_half(rho, l):
    """Closed form of I0 for kappa = 1/2 as F(beta) - F(0), beta = arctan(sqrt(rho)).

    The integrand 2 sin^(4l+5) cos^(4l-3) has the antiderivative

        F(beta) = -2 sum_j (-1)^j C(2l+2, j) cos^(4l-2+2j) / (4l-2+2j),

    with the j where the exponent vanishes (l = 0, j = 1) contributing a
    log(cos) term instead; F(0) removes the integration constant.
    """
    cos_b = np.cos(_beta(rho, 0.5))
    total = 0.0
    const = 0.0
    for j in range(2 * l + 3):
        coeff = -2.0 * (-1) ** j * binomial(2 * l + 2, j)
        expo = 4 * l - 2 + 2 * j
        if expo == 0:
            total = total + coeff * np.log(cos_b)
        else:
            total = total + coeff * cos_b ** expo / expo
            const += coeff / expo
    return total - const


def _sin_power_integral(m, x):
    """int_0^x sin^(2m) u du as the standard finite multiple-angle sum."""
    out = binomial(2 * m, m) * x
    for k in range(m):
        out = out + (-1.0) ** (m - k) * binomial(2 * m, k) * np.sin(
            (2 * m - 2 * k) * x
        ) / (m - k)
    return out / 4.0**m


def i0_closed_one(rho, l):
    """Closed form of I0 for kappa = 1: the integral of sin^(2l+2) cos^(2l-2).

    The integral runs over [0, beta], beta = arctan(rho).  l = 0 reduces to
    tan(beta) - beta.  For l >= 1 the integrand is written as
    (sin 2b / 2)^(2l-2) sin^4 b and expanded into even sine powers of 2b
    plus one odd cos(2b) term, each with an elementary antiderivative; every
    term vanishes at beta = 0 so no constant is needed.
    """
    b = _beta(rho, 1.0)
    if l == 0:
        return np.tan(b) - b
    s_lm1 = 0.5 * _sin_power_integral(l - 1, 2.0 * b)
    s_l = 0.5 * _sin_power_integral(l, 2.0 * b)
    edge = np.sin(2.0 * b) ** (2 * l - 1) / (2 * l - 1)
    return (2.0 * s_lm1 - s_l - edge) / 4.0**l


def i0(rho, l, kappa):
    """I0(rho) = int_0^rho f^2: the closed form at kappa = 1 or 1/2, else quadrature."""
    if kappa == 1.0:
        return i0_closed_one(rho, l)
    if kappa == 0.5:
        return i0_closed_half(rho, l)
    return i0_quadrature(rho, l, kappa)


def _denominator(r, params: DoParams):
    """I0(rho) + lam, the damping denominator of the family."""
    return i0(r, params.l, params.kappa) + params.lam


def v_general(rho, params: DoParams):
    """General Riccati solution V_gen = f^-2 (lam + I0); strictly positive."""
    r = _as_rho(rho)
    f = radial_factor_f(r, params.l, params.kappa)
    return _denominator(r, params) / f**2


def superpotential_general(rho, params: DoParams):
    """General superpotential W_gen = W + f^2 / (I0 + lam).

    The derivative of log(I0 + lam) is taken analytically: dI0/drho = f^2.
    """
    r = _as_rho(rho)
    f = radial_factor_f(r, params.l, params.kappa)
    return superpotential_w(r, params.l, params.kappa) + f**2 / _denominator(r, params)


def _family_terms(r, params: DoParams):
    """f, f_bos = f/(I0+lam), 4 f f'/(I0+lam) and 2 f^4/(I0+lam)^2 on one grid.

    The one place a family evaluates f, f' and I0; every family column is
    built from these four arrays.
    """
    # f' first: it dies on return, and with the kept f allocated after it a
    # large table leaves less of the heap fragmented (lower peak RSS).
    df = radial_factor_df(r, params.l, params.kappa)
    f = radial_factor_f(r, params.l, params.kappa)
    denom = _denominator(r, params)
    return f, f / denom, 4.0 * f * df / denom, 2.0 * f**4 / denom**2


def _u_bos(u_m, terms):
    """U_bos = U- - 4 f f'/(I0+lam) + 2 f^4/(I0+lam)^2 from U- and _family_terms."""
    return u_m - terms[2] + terms[3]


def family_columns(rho, params: DoParams):
    """The columns (U-, U_bos, f, f_bos) on one grid, from one f, f', I0 and U-."""
    r = _as_rho(rho)
    u_m = u_minus(r, params.l, params.kappa)
    terms = _family_terms(r, params)
    return u_m, _u_bos(u_m, terms), terms[0], terms[1]


def u_bosonic_family(rho, params: DoParams):
    """Isospectral bosonic potential U- - 4 f f'/(I0+lam) + 2 f^4/(I0+lam)^2."""
    return family_columns(rho, params)[1]


def radial_factor_bosonic(rho, params: DoParams):
    """Damped radial factor f / (I0 + lam): strictly positive and nodeless."""
    return _family_terms(_as_rho(rho), params)[1]
