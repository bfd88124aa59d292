"""Full-line picture: log-radius transform, sech^2 wells, and the return map.

The substitution x = ln rho together with phi = exp(-x/2) u maps the
half-line zero-energy problem onto a reflectionless Rosen-Morse well

    [-d^2/dx^2 + (n - 1/2)^2 - (n - 1/2)(n + 1/2)/cosh^2 x] phi = 0.

After the shift n_b = n + 1/2 (integer part used) the well takes the
standard form -n_b(n_b+1)/cosh^2 x with the bound-state ladder -k^2,
k = 1..n_b.  The single-bound-state family is a pure translation of the
well, and mapping back to the half line turns the family parameter into a
rescaling of the lens radius.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .do_core import _as_rho, xi_of_rho

__all__ = [
    "langer_x",
    "langer_rho",
    "langer_wavefunction",
    "rm_potential",
    "rm_spectrum",
    "rm_superpotential",
    "rm_family_single",
    "rm_family_shift",
    "rescale_radius",
    "halfline_superpartner",
    "halfline_superpotential",
    "aufbau_rm_potential",
    "aufbau_spectrum",
]


def langer_x(rho):
    """Log-radius coordinate x = ln rho."""
    r = _as_rho(rho)
    return np.log(r)


def langer_rho(x):
    """Inverse map rho = exp(x)."""
    return np.exp(x)


def langer_wavefunction(u_value, rho):
    """Full-line wavefunction phi = rho^(-1/2) u."""
    r = _as_rho(rho)
    return u_value / np.sqrt(r)


def rm_potential(x, n_b_int):
    """Standard reflectionless well -n_b (n_b + 1) / cosh^2 x."""
    if n_b_int < 1 or int(n_b_int) != n_b_int:
        raise ValueError("n_b_int must be a positive integer")
    return -n_b_int * (n_b_int + 1.0) / np.cosh(x) ** 2


def rm_spectrum(n_b_int):
    """Analytic bound states {-k^2 : k = 1..n_b}, ascending (deepest first)."""
    if n_b_int < 1 or int(n_b_int) != n_b_int:
        raise ValueError("n_b_int must be a positive integer")
    return [-float(k * k) for k in range(n_b_int, 0, -1)]


def rm_superpotential(x, n_b_int):
    """Full-line superpotential n_b tanh x.

    Its Riccati combination W' + W^2 equals the superpartner
    -n_b (n_b - 1)/cosh^2 x + n_b^2.
    """
    if n_b_int < 1 or int(n_b_int) != n_b_int:
        raise ValueError("n_b_int must be a positive integer")
    return n_b_int * np.tanh(x)


def rm_family_shift(lambda0) -> float:
    """Well translation (1/2) ln|1 + 1/lambda0| of the single-state family.

    Diverges to +inf as lambda0 -> 0+ and to -inf as lambda0 -> -1+, which
    pushes the well itself to -inf and +inf respectively.
    """
    if lambda0 == 0.0 or lambda0 == -1.0:
        raise ValueError("lambda0 = 0 and lambda0 = -1 are outside the family")
    if lambda0 <= -1.0:
        raise ValueError("lambda0 must lie in (-1, 0) or (0, inf)")
    if lambda0 < 0.0:
        warnings.warn(
            "lambda0 in (-1, 0) is outside the strictly isospectral branch; "
            "using |1 + 1/lambda0| for limit studies",
            stacklevel=2,
        )
    return 0.5 * math.log(abs(1.0 + 1.0 / lambda0))


def rm_family_single(x, lambda0):
    """One-parameter family of single-bound-state wells.

    -2 / cosh^2(x + (1/2) ln(1 + 1/lambda0)): a pure translation, so every
    member keeps the single eigenvalue -1.
    """
    shift = rm_family_shift(lambda0)
    return -2.0 / np.cosh(np.asarray(x, dtype=float) + shift) ** 2


def rescale_radius(R, lambda0) -> float:
    """Rescaled lens radius R sqrt(lambda0 / (lambda0 + 1)) < R."""
    if R <= 0:
        raise ValueError("R must be positive")
    if lambda0 <= 0:
        raise ValueError("lambda0 must be positive")
    return R * math.sqrt(lambda0 / (lambda0 + 1.0))


def halfline_superpartner(rho, l):
    """Half-line superpartner l(l+1)/rho^2 - (2l+1)(2l-1)/(1+rho^2)^2.

    This is the kappa = 1 partner obtained by doing the supersymmetric step
    on the full line and mapping back; it keeps the original centrifugal
    term, unlike the direct half-line partner u_plus.
    """
    r = _as_rho(rho)
    if l < 0 or int(l) != l:
        raise ValueError("l must be a non-negative integer")
    return l * (l + 1) / r**2 - (2 * l + 1) * (2 * l - 1) / (1.0 + r**2) ** 2


def halfline_superpotential(rho, n):
    """Companion particular superpotential (1/2 - n) xi(rho) at kappa = 1."""
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    return (0.5 - n) * xi_of_rho(rho, 1.0)


def aufbau_rm_potential(x, N_aufbau):
    """Half-width well -N(N+1) / (4 cosh^2(x/2)) for odd N = 2l + 1."""
    if N_aufbau < 1 or int(N_aufbau) != N_aufbau or N_aufbau % 2 == 0:
        raise ValueError("N_aufbau must be a positive odd integer")
    half = 0.5 * np.asarray(x, dtype=float)
    return -N_aufbau * (N_aufbau + 1.0) / (4.0 * np.cosh(half) ** 2)


def aufbau_spectrum(N_aufbau):
    """Analytic ladder {-k^2/4 : k = 1..N}, ascending (deepest -N^2/4 first)."""
    if N_aufbau < 1 or int(N_aufbau) != N_aufbau or N_aufbau % 2 == 0:
        raise ValueError("N_aufbau must be a positive odd integer")
    return [-0.25 * k * k for k in range(N_aufbau, 0, -1)]
