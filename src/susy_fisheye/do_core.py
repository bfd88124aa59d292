"""Demkov-Ostrovsky model on the half line at zero energy.

Everything is expressed in the dimensionless radius rho = r / R with the
energy scale set to one.  The central objects are the focusing potential

    V(rho) = -w / (rho^2 (rho^-kappa + rho^kappa)^2),

its quantized coupling w, the nodeless radial factor f, the particular
superpotential W = -f'/f and the two partner effective potentials
U- = W^2 - W' and U+ = W^2 + W'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specfun import GegenbauerArgs, gegenbauer

__all__ = [
    "RHO_MIN",
    "DoParams",
    "Profile",
    "coupling_w",
    "nodeless_coupling",
    "potential_v",
    "xi_of_rho",
    "radial_wavefunction",
    "radial_factor_f",
    "radial_factor_df",
    "superpotential_w",
    "superpotential_dw",
    "u_minus",
    "u_plus",
    "degeneracy",
]

# Half-line evaluators refuse radii below this instead of trying to
# regularize the centrifugal singularity.
RHO_MIN = 1e-12


def _as_rho(rho):
    """Validate and return rho as a float array, 0-d for a scalar radius.

    numpy operations on a 0-d array give a numpy float64, so every
    evaluator built on this returns a float for a scalar radius and an
    array of the input's shape for a list or an array.
    """
    arr = np.asarray(rho, dtype=float)
    if arr.size == 0:
        raise ValueError("empty radius input")
    if np.any(arr < RHO_MIN):
        raise ValueError(f"rho must be >= {RHO_MIN}")
    return arr


@dataclass(frozen=True)
class DoParams:
    """Parameter bundle (kappa, l, N, lam, R) for one half-line problem.

    The polynomial degree N - 1 - l/kappa must be a non-negative integer;
    the nodeless sector corresponds to degree zero.  lam > 0 selects a
    member of the strictly isospectral family (the lam -> 0+ and
    lam -> -1+ endpoints are outside the validity domain).
    """

    kappa: float
    l: int
    N: int
    lam: float = 1.0
    R: float = 1.0

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.l < 0 or int(self.l) != self.l:
            raise ValueError("l must be a non-negative integer")
        if self.N < 1 or int(self.N) != self.N:
            raise ValueError("N must be a positive integer")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.R <= 0:
            raise ValueError("R must be positive")
        deg = self.N - 1 - self.l / self.kappa
        if deg < -1e-9 or abs(deg - round(deg)) > 1e-9:
            raise ValueError(
                f"degree N - 1 - l/kappa = {deg} is not a non-negative integer"
            )

    @classmethod
    def nodeless(cls, kappa, l, lam=1.0, R=1.0):
        """Construct the radially nodeless member: N = 1 + l/kappa."""
        n_total = 1 + l / kappa
        if abs(n_total - round(n_total)) > 1e-9:
            raise ValueError(
                f"nodeless sector needs integral 1 + l/kappa, got {n_total}"
            )
        return cls(kappa=kappa, l=l, N=int(round(n_total)), lam=lam, R=R)

    @property
    def degree(self) -> int:
        """Polynomial degree N - 1 - l/kappa (the radial quantum number)."""
        return int(round(self.N - 1 - self.l / self.kappa))

    @property
    def n(self) -> int:
        """Principal quantum number n = n_r + l + 1."""
        return self.degree + self.l + 1

    @property
    def is_nodeless(self) -> bool:
        return self.degree == 0

    @property
    def w(self) -> float:
        """Quantized coupling for this (N, kappa)."""
        return coupling_w(self.N, self.kappa)


@dataclass(frozen=True)
class Profile:
    """A sampled radial function: strictly increasing grid plus values."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size < 2:
            raise ValueError("grid must be one-dimensional with length >= 2")
        if v.shape != g.shape:
            raise ValueError("grid and values must have the same length")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.grid.size


def coupling_w(N, kappa) -> float:
    """Quantized coupling (2 kappa)^2 [N + 1/(2 kappa)] [N + 1/(2 kappa) - 1]."""
    if N < 1 or int(N) != N:
        raise ValueError("N must be a positive integer")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    s = 1.0 / (2.0 * kappa)
    return (2.0 * kappa) ** 2 * (N + s) * (N + s - 1.0)


def nodeless_coupling(l, kappa) -> float:
    """Coupling in the nodeless sector, (2l+1)(2l+1+2 kappa).

    Equals coupling_w(1 + l/kappa, kappa) whenever the latter is defined.
    """
    return float((2 * l + 1) * (2 * l + 1 + 2 * kappa))


def potential_v(rho, kappa, w):
    """Focusing potential -w / (rho^2 (rho^-kappa + rho^kappa)^2).

    Evaluated as -w rho^(2 kappa - 2) / (1 + rho^(2 kappa))^2, which is
    overflow-safe at both ends of the half line.
    """
    r = _as_rho(rho)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    t = r ** (2.0 * kappa)
    return -w * r ** (2.0 * kappa - 2.0) / (1.0 + t) ** 2


def xi_of_rho(rho, kappa):
    """Map rho to xi = (1 - rho^(2 kappa)) / (1 + rho^(2 kappa)) in (-1, 1)."""
    r = _as_rho(rho)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    t = r ** (2.0 * kappa)
    return (1.0 - t) / (1.0 + t)


def radial_wavefunction(rho, params: DoParams):
    """Unnormalized zero-energy radial wavefunction R(rho).

    R = rho^l (1 + rho^(2 kappa))^(-(2l+1)/(2 kappa)) C_p^q(xi) with
    polynomial degree p = N - 1 - l/kappa and order q = (2l+1)/(2 kappa) + 1/2.
    The overall normalization constant is dropped.
    """
    r = _as_rho(rho)
    kappa, l = params.kappa, params.l
    t = r ** (2.0 * kappa)
    expo = (2 * l + 1) / (2.0 * kappa)
    envelope = r**l * (1.0 + t) ** (-expo)
    xi = (1.0 - t) / (1.0 + t)
    poly = gegenbauer(GegenbauerArgs(params.degree, expo + 0.5, xi))
    return envelope * poly


def radial_factor_f(rho, l, kappa):
    """Nodeless radial factor f = rho^(l+1) (1 + rho^(2 kappa))^(-(2l+1)/(2 kappa)).

    Equals rho times the nodeless radial wavefunction; it is the zero mode
    of the bosonic effective potential u_minus.
    """
    r = _as_rho(rho)
    t = r ** (2.0 * kappa)
    return r ** (l + 1) * (1.0 + t) ** (-(2 * l + 1) / (2.0 * kappa))


def radial_factor_df(rho, l, kappa):
    """Analytic derivative f'(rho) of the nodeless radial factor.

    f' = rho^l (1+t)^(-(2l+1)/(2 kappa)) [(l+1) - (2l+1) t/(1+t)], t = rho^(2 kappa);
    the factored form avoids 0/0 at small rho.
    """
    r = _as_rho(rho)
    t = r ** (2.0 * kappa)
    env = r**l * (1.0 + t) ** (-(2 * l + 1) / (2.0 * kappa))
    return env * ((l + 1) - (2 * l + 1) * t / (1.0 + t))


def superpotential_w(rho, l, kappa):
    """Particular superpotential W = l/rho - (2l+1)/(rho (1 + rho^(2 kappa))).

    Identical to -f'/f for the nodeless radial factor f.
    """
    r = _as_rho(rho)
    t = r ** (2.0 * kappa)
    return l / r - (2 * l + 1) / (r * (1.0 + t))


def superpotential_dw(rho, l, kappa):
    """Analytic derivative W'(rho) of the particular superpotential."""
    r = _as_rho(rho)
    t = r ** (2.0 * kappa)
    return (l + 1) / r**2 + (2 * l + 1) * t * ((2.0 * kappa - 1.0) - t) / (r * (1.0 + t)) ** 2


def u_minus(rho, l, kappa):
    """Bosonic effective potential U- = l(l+1)/rho^2 + V(rho; w) = W^2 - W'.

    Computed from the closed form with the nodeless coupling
    w = (2l+1)(2l+1+2 kappa); the W^2 - W' route is kept as a test oracle.
    """
    r = _as_rho(rho)
    w = nodeless_coupling(l, kappa)
    return l * (l + 1) / r**2 + potential_v(r, kappa, w)


def u_plus(rho, l, kappa):
    """Fermionic effective superpartner U+ = W^2 + W' = U- + 2 W'."""
    r = _as_rho(rho)
    return u_minus(r, l, kappa) + 2.0 * superpotential_dw(r, l, kappa)


def degeneracy(N) -> int:
    """Degeneracy of the zero-energy bound state, N^2."""
    if N < 1 or int(N) != N:
        raise ValueError("N must be a positive integer")
    return int(N) * int(N)
