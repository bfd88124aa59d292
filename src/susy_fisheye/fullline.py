"""Full-line picture: sech^2 wells, their spectra and the radius rescaling.

The substitution x = ln rho together with phi = exp(-x/2) u maps the
half-line zero-energy problem onto a reflectionless Rosen-Morse well

    [-d^2/dx^2 + (n - 1/2)^2 - (n - 1/2)(n + 1/2)/cosh^2 x] phi = 0.

After the shift n_b = n + 1/2 (integer part used) the well takes the
standard form -n_b(n_b+1)/cosh^2 x with the bound-state ladder -k^2,
k = 1..n_b.  The single-bound-state family is a pure translation of the
well; on the half line it rescales the lens radius (rescale_radius).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = [
    "rm_potential",
    "rm_partner_potential",
    "rm_spectrum",
    "rm_family_single",
    "rm_family_shift",
    "rescale_radius",
    "aufbau_rm_potential",
    "aufbau_spectrum",
]


def _check_n_b(n_b_int):
    if n_b_int < 1 or int(n_b_int) != n_b_int:
        raise ValueError(f"n_b_int must be a positive integer, got n_b_int = {n_b_int:g}")


def _check_aufbau(N_aufbau):
    if N_aufbau < 1 or int(N_aufbau) != N_aufbau or N_aufbau % 2 == 0:
        raise ValueError(
            f"N_aufbau must be a positive odd integer, got N_aufbau = {N_aufbau:g}"
        )


def rm_potential(x, n_b_int):
    """Standard reflectionless well -n_b (n_b + 1) / cosh^2 x."""
    _check_n_b(n_b_int)
    return -n_b_int * (n_b_int + 1.0) / np.cosh(x) ** 2


def rm_partner_potential(x, n_b_int):
    """SUSY partner -n_b (n_b - 1) / cosh^2 x of rm_potential: the ladder of well n_b - 1.

    Written n_b (1 - n_b) so that the flat partner of n_b = 1 is +0.0.
    """
    _check_n_b(n_b_int)
    return n_b_int * (1.0 - n_b_int) / np.cosh(x) ** 2


def rm_spectrum(n_b_int):
    """Analytic bound states {-k^2 : k = 1..n_b}, ascending (deepest first)."""
    _check_n_b(n_b_int)
    return [-float(k * k) for k in range(n_b_int, 0, -1)]


def rm_family_shift(lambda0) -> float:
    """Well translation (1/2) ln|1 + 1/lambda0| of the single-state family.

    Grows as lambda0 -> 0 and diverges to -inf as lambda0 -> -1+, which
    pushes the well itself to -inf and +inf respectively.  Where 1/lambda0
    overflows (|lambda0| below about 5.6e-309) it is computed as
    (1/2)(ln(1 + lambda0) - ln|lambda0|), 372.2 at the smallest float.
    """
    if not lambda0 > -1.0 or lambda0 == 0.0:
        raise ValueError(f"lambda0 must lie in (-1, 0) or (0, inf), got lambda0 = {lambda0:g}")
    if lambda0 < 0.0:
        warnings.warn(
            "lambda0 in (-1, 0) is outside the strictly isospectral branch; "
            "using |1 + 1/lambda0| for limit studies",
            stacklevel=2,
        )
    inverse = 1.0 / lambda0
    if math.isinf(inverse):
        return 0.5 * (math.log1p(lambda0) - math.log(abs(lambda0)))
    return 0.5 * math.log(abs(1.0 + inverse))


def rm_family_single(x, lambda0):
    """One-parameter family of single-bound-state wells.

    -2 / cosh^2(x + (1/2) ln(1 + 1/lambda0)): a pure translation, so every
    member keeps the single eigenvalue -1.
    """
    shift = rm_family_shift(lambda0)
    return -2.0 / np.cosh(np.asarray(x, dtype=float) + shift) ** 2


def rescale_radius(R, lambda0) -> float:
    """Rescaled lens radius R sqrt(lambda0 / (lambda0 + 1)) < R."""
    if not 0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got R = {R:g}")
    if not 0 < lambda0 < math.inf:
        raise ValueError(f"lambda0 must be positive and finite, got lambda0 = {lambda0:g}")
    return R * math.sqrt(lambda0 / (lambda0 + 1.0))


def aufbau_rm_potential(x, N_aufbau):
    """Half-width well -N(N+1) / (4 cosh^2(x/2)) for odd N = 2l + 1."""
    _check_aufbau(N_aufbau)
    half = 0.5 * np.asarray(x, dtype=float)
    return -N_aufbau * (N_aufbau + 1.0) / (4.0 * np.cosh(half) ** 2)


def aufbau_spectrum(N_aufbau):
    """Analytic ladder {-k^2/4 : k = 1..N}, ascending (deepest -N^2/4 first)."""
    _check_aufbau(N_aufbau)
    return [-0.25 * k * k for k in range(N_aufbau, 0, -1)]
