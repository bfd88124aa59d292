"""Gegenbauer (ultraspherical) polynomials by their three-term recurrence."""

from __future__ import annotations

import numpy as np

__all__ = ["gegenbauer"]


def gegenbauer(p, q, xi):
    """Evaluate C_p^q(xi), degree p, order q, by the forward three-term recurrence.

    (p+1) C_{p+1} = 2 (p+q) xi C_p - (p + 2q - 1) C_{p-1},
    seeded with C_0 = 1 and C_1 = 2 q xi.  The degrees in scope are small,
    so the recurrence is stable.  The order may be a scalar above -1/2 or a
    numpy array of such orders, and the argument xi a scalar or a numpy
    array of points in [-1, 1]; an order array broadcasts against the
    argument (an order column against a row of points gives one row per
    order).  A scalar order and argument give a float; arrays run the same
    recurrence elementwise and give an array of their broadcast shape,
    equal bit for bit to the scalar values.  A degree, order or argument
    out of range, NaN included, is refused, naming the parameter.
    """
    if p < 0 or int(p) != p:
        raise ValueError(f"degree must be a non-negative integer, got degree = {p:g}")
    # "not x > bound" form: false for NaN as well
    order = np.asarray(q, dtype=float)
    valid = order > -0.5
    if not valid.all():
        raise ValueError(f"order must be > -1/2, got order = {float(order[~valid][0]):g}")
    argument = np.asarray(xi, dtype=float)
    inside = np.abs(argument) <= 1.0
    if not inside.all():
        bad = float(argument[~inside][0])
        raise ValueError(f"argument must lie in [-1, 1], got argument = {bad:g}")
    if p == 0:
        return np.ones(np.broadcast_shapes(np.shape(q), np.shape(xi)))[()]
    prev, cur = 1.0, 2.0 * q * xi
    for k in range(1, p):
        prev, cur = cur, (2.0 * (k + q) * xi * cur - (k + 2.0 * q - 1.0) * prev) / (k + 1.0)
    return cur
