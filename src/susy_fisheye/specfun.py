"""Gegenbauer (ultraspherical) polynomials and exact binomial coefficients."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["GegenbauerArgs", "gegenbauer", "binomial"]


@dataclass(frozen=True)
class GegenbauerArgs:
    """Arguments (degree p, order q, argument xi) for C_p^q(xi).

    The argument may be a scalar or a numpy array of points in [-1, 1].
    """

    degree: int
    order: float
    argument: float | np.ndarray

    def __post_init__(self):
        if self.degree < 0 or int(self.degree) != self.degree:
            raise ValueError(
                f"degree must be a non-negative integer, got degree = {self.degree:g}"
            )
        if self.order <= -0.5:
            raise ValueError(f"order must be > -1/2, got order = {self.order:g}")
        outside = np.abs(self.argument) > 1.0
        if np.any(outside):
            bad = float(np.asarray(self.argument)[outside].flat[0])
            raise ValueError(f"argument must lie in [-1, 1], got argument = {bad:g}")


def gegenbauer(args: GegenbauerArgs):
    """Evaluate C_p^q(xi) by the forward three-term recurrence.

    (p+1) C_{p+1} = 2 (p+q) xi C_p - (p + 2q - 1) C_{p-1},
    seeded with C_0 = 1 and C_1 = 2 q xi.  The degrees in scope are small,
    so the recurrence is stable.  A scalar argument gives a float; an array
    runs the same recurrence elementwise and gives an array of its shape,
    equal bit for bit to the scalar values.
    """
    p, q, xi = args.degree, args.order, args.argument
    if p == 0:
        return np.ones(np.shape(xi))[()]
    prev, cur = 1.0, 2.0 * q * xi
    for k in range(1, p):
        prev, cur = cur, (2.0 * (k + q) * xi * cur - (k + 2.0 * q - 1.0) * prev) / (k + 1.0)
    return cur


def binomial(n: int, k: int) -> int:
    """Exact integer binomial coefficient, with a hard domain check for k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be non-negative")
    if k > n:
        raise ValueError(f"binomial requires k <= n, got ({n}, {k})")
    return math.comb(n, k)
