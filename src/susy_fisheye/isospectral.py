"""One-parameter strictly isospectral bosonic family on the half line.

Built from the general Riccati solution: with f the nodeless radial factor
and I0(rho) = int_0^rho f^2, the family members are

    V_gen  = f^-2 (lam + I0)                      (general Riccati solution)
    W_gen  = W + f^2 / (I0 + lam)                 (general superpotential)
    U_bos  = U- - 4 f f' / (I0 + lam) + 2 f^4 / (I0 + lam)^2
    f_bos  = f / (I0 + lam)                       (damped radial factor)

I0 is available in closed form for kappa = 1/2 and kappa = 1 through the
substitution rho = tan(beta)^(1/kappa), which turns f^2 drho into

    (1/kappa) sin(beta)^((2l+3-kappa)/kappa) cos(beta)^((2l-1-kappa)/kappa) dbeta.

Both closed forms below are antiderivatives of exactly this integrand and
are cross-checked against adaptive quadrature of f^2; for every other
kappa the quadrature route is used directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .do_core import (
    DoParams,
    _as_rho,
    radial_factor_df,
    radial_factor_f,
    superpotential_w,
    u_minus,
)
from .numerics import integrate_adaptive
from .specfun import binomial

__all__ = [
    "IsoFamily",
    "beta_of_rho",
    "i0_quadrature",
    "i0_closed_half",
    "i0_closed_one",
    "v_general",
    "superpotential_general",
    "u_bosonic_family",
    "radial_factor_bosonic",
]


def beta_of_rho(rho, kappa):
    """Trigonometric angle beta = arctan(rho^kappa) in (0, pi/2)."""
    r = _as_rho(rho)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return np.arctan(r**kappa)


def _f_squared(s, l, kappa):
    """Quadrature integrand f^2, written to be finite down to s = 0."""
    t = s ** (2.0 * kappa)
    return s ** (2 * l + 2) * (1.0 + t) ** (-(2 * l + 1) / kappa)


def i0_quadrature(rho, l, kappa, tol=1e-10) -> float:
    """Integral of f^2 from 0 to rho by adaptive quadrature (the oracle)."""
    r = float(_as_rho(rho))
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    result = integrate_adaptive(lambda s: _f_squared(s, l, kappa), 0.0, r, tol=tol)
    return result.value


def _check_beta(beta):
    b = np.asarray(beta, dtype=float)
    if np.any(b < 0.0) or np.any(b >= 0.5 * math.pi):
        raise ValueError("beta must lie in [0, pi/2)")
    return b


def i0_closed_half(beta, l):
    """Closed form of I0 for kappa = 1/2 as the definite integral F(beta) - F(0).

    The integrand 2 sin^(4l+5) cos^(4l-3) has the antiderivative

        F(beta) = -2 sum_j (-1)^j C(2l+2, j) cos^(4l-2+2j) / (4l-2+2j),

    with the j where the exponent vanishes (l = 0, j = 1) contributing a
    log(cos) term instead; F(0) removes the integration constant.
    """
    b = _check_beta(beta)
    cos_b = np.cos(b)
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


def i0_closed_one(beta, l):
    """Closed form of I0 for kappa = 1: the integral of sin^(2l+2) cos^(2l-2).

    l = 0 reduces to tan(beta) - beta.  For l >= 1 the integrand is written
    as (sin 2b / 2)^(2l-2) sin^4 b and expanded into even sine powers of 2b
    plus one odd cos(2b) term, each with an elementary antiderivative; every
    term vanishes at beta = 0 so no constant is needed.
    """
    b = _check_beta(beta)
    if l == 0:
        return np.tan(b) - b
    s_lm1 = 0.5 * _sin_power_integral(l - 1, 2.0 * b)
    s_l = 0.5 * _sin_power_integral(l, 2.0 * b)
    edge = np.sin(2.0 * b) ** (2 * l - 1) / (2 * l - 1)
    return (2.0 * s_lm1 - s_l - edge) / 4.0**l


@dataclass(frozen=True)
class IsoFamily:
    """A strictly isospectral family member bound to one parameter bundle.

    Selects the closed form of I0 for kappa in {1/2, 1} and falls back to
    adaptive quadrature for any other kappa, so the family is available on
    the whole kappa > 0 axis.  Immutable after construction; evaluation is
    pure and safe to run concurrently over grids.
    """

    params: DoParams
    quad_tol: float = 1e-10
    i0: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kappa, l = self.params.kappa, self.params.l
        if kappa == 1.0:
            fn = lambda rho: i0_closed_one(beta_of_rho(rho, 1.0), l)
        elif kappa == 0.5:
            fn = lambda rho: i0_closed_half(beta_of_rho(rho, 0.5), l)
        else:
            tol = self.quad_tol

            def fn(rho):
                r = _as_rho(rho)
                values = [i0_quadrature(ri, l, kappa, tol) for ri in r.ravel()]
                return np.reshape(values, r.shape)[()]

        object.__setattr__(self, "i0", fn)

    @property
    def lam(self) -> float:
        return self.params.lam

    def denominator(self, rho):
        """I0(rho) + lam, the damping denominator of the family."""
        return self.i0(rho) + self.params.lam


def v_general(rho, family: IsoFamily):
    """General Riccati solution V_gen = f^-2 (lam + I0); strictly positive."""
    r = _as_rho(rho)
    p = family.params
    f = radial_factor_f(r, p.l, p.kappa)
    return family.denominator(r) / f**2


def superpotential_general(rho, family: IsoFamily):
    """General superpotential W_gen = W + f^2 / (I0 + lam).

    The derivative of log(I0 + lam) is taken analytically: dI0/drho = f^2.
    """
    r = _as_rho(rho)
    p = family.params
    f = radial_factor_f(r, p.l, p.kappa)
    return superpotential_w(r, p.l, p.kappa) + f**2 / family.denominator(r)


def u_bosonic_family(rho, family: IsoFamily):
    """Isospectral bosonic potential U- - 4 f f'/(I0+lam) + 2 f^4/(I0+lam)^2."""
    r = _as_rho(rho)
    p = family.params
    f = radial_factor_f(r, p.l, p.kappa)
    df = radial_factor_df(r, p.l, p.kappa)
    denom = family.denominator(r)
    return u_minus(r, p.l, p.kappa) - 4.0 * f * df / denom + 2.0 * f**4 / denom**2


def radial_factor_bosonic(rho, family: IsoFamily):
    """Damped radial factor f / (I0 + lam): strictly positive and nodeless."""
    r = _as_rho(rho)
    p = family.params
    return radial_factor_f(r, p.l, p.kappa) / family.denominator(r)

