"""Demkov-Ostrovsky model on the half line at zero energy.

Everything is expressed in the dimensionless radius rho = r / R with the
energy scale set to one.  The central objects are the focusing potential

    V(rho) = -w / (rho^2 (rho^-kappa + rho^kappa)^2),

its quantized coupling w, the nodeless radial factor f, the particular
superpotential W = -f'/f and the two partner effective potentials
U- = W^2 - W' and U+ = W^2 + W', all finite at every float radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import gegenbauer

__all__ = [
    "RHO_MIN",
    "DoParams",
    "coupling_w",
    "nodeless_coupling",
    "potential_v",
    "radial_wavefunction",
    "radial_factor_f",
    "radial_factor_df",
    "superpotential_w",
    "u_minus",
    "u_plus",
]

# Half-line evaluators refuse radii below this instead of trying to
# regularize the centrifugal singularity.
RHO_MIN = 1e-12
# The smallest normal float: a value below it has lost relative digits.
_TINY = np.finfo(float).tiny


def _as_rho(rho):
    """Validate and return rho as a float array, 0-d for a scalar radius.

    numpy operations on a 0-d array give a numpy float64, so every
    evaluator built on this returns a float for a scalar radius and an
    array of the input's shape for a list or an array.
    """
    arr = np.asarray(rho, dtype=float)
    if arr.size == 0:
        raise ValueError("empty radius input")
    ok = arr >= RHO_MIN  # false for NaN too
    if not ok.all():
        raise ValueError(f"rho must be >= {RHO_MIN}, got rho = {float(arr.flat[np.argmin(ok)])}")
    return arr


def _check_kappa(kappa):
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got kappa = {kappa:g}")


def _check_l(l):
    if not (l >= 0 and float(l).is_integer()):
        raise ValueError(f"l must be a non-negative integer, got l = {l:g}")


@dataclass(frozen=True)
class DoParams:
    """Parameter bundle (kappa, l, N, lam) for one half-line problem.

    It is also the family's parameter object: the isospectral evaluators
    take a nodeless DoParams and read I0 for its (kappa, l) from
    isospectral.i0.  The polynomial degree N - 1 - l/kappa must be a
    non-negative integer; the nodeless sector corresponds to degree zero.
    Any finite lam > 0 selects a member of the strictly isospectral
    family; at kappa = 1 and small lam, the closed form of I0 limits the
    relative accuracy at small rho, where it cancels.  Against
    i0_quadrature on linspace(0.01, 3, 300) its relative error is 1.0e-8
    at l = 1, 1.8e-5 at l = 2, 1.0e-2 at l = 3, 2.2e2 at l = 4 and 5.2e5 at
    l = 5, and i0_closed_one(0.001, 3) is -2.2e-21 where I0 is 1.1e-28;
    the error reaches the family only where lam is not far above I0.
    Radii are in units of the lens radius R (rho = r / R), so R is not a
    parameter here; fullline.rescale_radius takes its own R.
    """

    kappa: float
    l: int
    N: int
    lam: float = 1.0

    def __post_init__(self):
        _check_kappa(self.kappa)
        _check_l(self.l)
        if self.N < 1 or int(self.N) != self.N:
            raise ValueError(f"N must be a positive integer, got N = {self.N:g}")
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got lam = {self.lam:g}")
        if self.lam == math.inf:
            raise ValueError(f"lam must be finite, got lam = {self.lam:g}")
        deg = self.N - 1 - self.l / self.kappa
        if deg < -1e-9 or abs(deg - round(deg)) > 1e-9:
            raise ValueError(
                f"degree N - 1 - l/kappa = {deg} is not a non-negative integer"
            )

    @classmethod
    def nodeless(cls, kappa, l, lam=1.0):
        """Construct the radially nodeless member: N = 1 + l/kappa."""
        _check_kappa(kappa)
        n_total = 1 + l / kappa
        if abs(n_total - round(n_total)) > 1e-9:
            raise ValueError(
                f"nodeless sector needs integral 1 + l/kappa, got l = {l:g}, "
                f"kappa = {kappa:g} (1 + l/kappa = {n_total:.3g})"
            )
        return cls(kappa=kappa, l=l, N=int(round(n_total)), lam=lam)

    @property
    def degree(self) -> int:
        """Polynomial degree N - 1 - l/kappa (the radial quantum number)."""
        return int(round(self.N - 1 - self.l / self.kappa))

    @property
    def w(self) -> float:
        """Quantized coupling for this (N, kappa)."""
        return coupling_w(self.N, self.kappa)


def coupling_w(N, kappa) -> float:
    """Quantized coupling (2 kappa)^2 [N + 1/(2 kappa)] [N + 1/(2 kappa) - 1]."""
    if N < 1 or int(N) != N:
        raise ValueError(f"N must be a positive integer, got N = {N:g}")
    _check_kappa(kappa)
    s = 1.0 / (2.0 * kappa)
    return (2.0 * kappa) ** 2 * (N + s) * (N + s - 1.0)


def nodeless_coupling(l, kappa) -> float:
    """Coupling in the nodeless sector, (2l+1)(2l+1+2 kappa).

    Equals coupling_w(1 + l/kappa, kappa) whenever the latter is defined.
    """
    return float((2 * l + 1) * (2 * l + 1 + 2 * kappa))


def _fractions(r, kappa):
    """(x, y) = (t/(1+t), 1/(1+t)), t = rho^(2 kappa), as t/(t+s) and s/(t+s).

    t = min(rho, 1)^(2 kappa) and s = max(rho, 1)^(-2 kappa), so no power
    overflows; ufuncs with a scalar exponent keep scalar = array element.
    """
    _check_kappa(kappa)
    t = np.power(np.minimum(r, 1.0), 2.0 * kappa)
    s = np.power(np.maximum(r, 1.0), -2.0 * kappa)
    total = t + s
    return t / total, s / total


def potential_v(rho, kappa, w):
    """Focusing potential -w / (rho^2 (rho^-kappa + rho^kappa)^2).

    Evaluated as -w x y / rho / rho; dividing by rho twice keeps rho^2
    from overflowing.  Where x is subnormal (rho < 1, so 1 + t rounds to 1)
    V is -w rho^(2 kappa - 2), which x / rho^2 would round in the subnormals.
    """
    r = _as_rho(rho)
    x, y = _fractions(r, kappa)
    return _substitute(-w * x * y / r / r, x < _TINY, r, lambda rs: -w * rs ** (2.0 * kappa - 2.0))


def radial_wavefunction(rho, params: DoParams):
    """Unnormalized zero-energy radial wavefunction R(rho) = f(rho) C_p^q(y - x) / rho.

    f is the nodeless radial factor, p = N - 1 - l/kappa the degree and
    q = (2l+1)/(2 kappa) + 1/2 the order; rho divides last, so f/rho never
    rounds in the subnormals at rho > 1.  Below 1, where f is subnormal,
    rho^l (1 + t)^(-(2l+1)/(2 kappa)) is taken directly.  The normalization
    constant is dropped.
    """
    r = _as_rho(rho)
    kappa, l = params.kappa, params.l
    x, y = _fractions(r, kappa)
    poly = gegenbauer(params.degree, (2 * l + 1) / (2.0 * kappa) + 0.5, y - x)
    f = radial_factor_f(r, l, kappa)
    small = (f < _TINY) & (r < 1.0)
    return _substitute(f * poly / r, small, r, lambda rs: (
        rs**l * (1.0 + rs ** (2.0 * kappa)) ** (-(2 * l + 1) / (2.0 * kappa)) * poly[small]))


def _substitute(value, where, r, form):
    """value, with form(r[where]) in its place where the mask holds."""
    if not where.any():
        return value
    out = np.array(value)
    out[where] = form(r[where])
    return out[()]


def _reflect_where(direct, decay, r, reflected):
    """direct, with reflected(r) in its place at rho > 1 where direct is not
    finite or its decay (1 + t)^(-p) is not a normal float (0 at t = inf).

    There the reflected form's powers are at most 1; at rho <= 1 the direct
    form's are, and it is as exact as the float range allows.
    """
    trusted = np.isfinite(direct) & (decay >= _TINY)
    if trusted.all():
        return direct
    return _substitute(direct, ~trusted & (r > 1.0), r, reflected)


def radial_factor_f(rho, l, kappa):
    """Nodeless radial factor f = rho^(l+1) (1 + rho^(2 kappa))^(-(2l+1)/(2 kappa)).

    Equals rho times the nodeless radial wavefunction; it is the zero mode
    of the bosonic effective potential u_minus.  At radii rho > 1 where
    rho^(l+1) overflows or the decay (1 + rho^(2 kappa))^(-(2l+1)/(2 kappa))
    is not a normal float, f is taken from the reflected form
    rho^(-l) (1 + rho^(-2 kappa))^(-(2l+1)/(2 kappa)).

    Where p = (2l+1)/(2 kappa) is not a float (kappa = 0.7, say), the direct
    form carries its rounding, p ln(1+t) eps: within 1e-13, not 1e-14.
    """
    r = _as_rho(rho)
    p = (2 * l + 1) / (2.0 * kappa)
    with np.errstate(over="ignore", invalid="ignore"):
        decay = (1.0 + r ** (2.0 * kappa)) ** -p
        direct = r ** (l + 1) * decay
    return _reflect_where(
        direct, decay, r, lambda rb: rb**-l * (1.0 + rb ** (-2.0 * kappa)) ** -p
    )


def radial_factor_df(rho, l, kappa):
    """Analytic derivative f'(rho) of the nodeless radial factor.

    f' = rho^l (1+t)^(-(2l+1)/(2 kappa)) [(l+1) - (2l+1) t/(1+t)], t = rho^(2 kappa);
    the factored form avoids 0/0 at small rho.  At radii rho > 1 where this
    is not finite or the decay (1+t)^(-(2l+1)/(2 kappa)) is not a normal
    float, it is taken from the reflected form
    rho^(-l-1) (1+s)^(-(2l+1)/(2 kappa)) [(l+1) - (2l+1)/(1+s)], s = rho^(-2 kappa).
    At l = 0 the bracket is 1/(1+t) and s/(1+s), which do not cancel.
    """
    r = _as_rho(rho)
    p = (2 * l + 1) / (2.0 * kappa)
    with np.errstate(over="ignore", invalid="ignore"):
        t = r ** (2.0 * kappa)
        decay = (1.0 + t) ** -p
        bracket = 1.0 / (1.0 + t) if l == 0 else (l + 1) - (2 * l + 1) * t / (1.0 + t)
        direct = r**l * decay * bracket

    def reflected(rb):
        s = rb ** (-2.0 * kappa)
        bracket = s / (1.0 + s) if l == 0 else (l + 1) - (2 * l + 1) / (1.0 + s)
        return rb ** (-l - 1) * (1.0 + s) ** -p * bracket

    return _reflect_where(direct, decay, r, reflected)


def superpotential_w(rho, l, kappa):
    """Particular superpotential W = l/rho - (2l+1)/(rho (1 + rho^(2 kappa))).

    Evaluated as (l - (2l+1) y) / rho; identical to -f'/f for the nodeless f.
    """
    r = _as_rho(rho)
    y = _fractions(r, kappa)[1]
    return (l - (2 * l + 1) * y) / r


def u_minus(rho, l, kappa):
    """Bosonic effective potential U- = l(l+1)/rho^2 + V(rho; w) = W^2 - W'.

    Evaluated as l(l+1) / rho / rho + V with the nodeless coupling
    w = (2l+1)(2l+1+2 kappa); the W^2 - W' route is kept as a test oracle.
    """
    r = _as_rho(rho)
    return l * (l + 1) / r / r + potential_v(r, kappa, nodeless_coupling(l, kappa))


def u_plus(rho, l, kappa):
    """Fermionic effective superpartner U+ = W^2 + W', with its terms collected:
    (l(l-1) + (2l+1) y (2y - (2l-1-2 kappa) x)) / rho^2 does not cancel where
    W^2 and W' do (at l <= 1 and large rho).
    """
    r = _as_rho(rho)
    x, y = _fractions(r, kappa)
    return (l * (l - 1) + (2 * l + 1) * y * (2.0 * y - (2 * l - 1 - 2.0 * kappa) * x)) / r / r
