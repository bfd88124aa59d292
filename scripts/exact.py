"""The 40-digit mpmath reference of the closed forms, and the radii it is checked on.

exact(rho, l, kappa) gives {evaluator: (value, terms)} for V, U-, U+, W,
f, f', the radial wavefunction at degree 2 and I0 at one float radius,
each to 40 digits.  terms is the sum of the magnitudes of the terms the
value is the sum of, so |value - exact| / terms counts lost digits where
a value has roots; for V, f and I0, which have none, it is |value|.
family(rho, l, kappa, lam) gives the family terms and, at kappa = 1, the
fish-eye index columns from these.  sweep(n) is the one seeded sweep that
the tests and scripts/values_ab.py run the evaluators on, at the nodeless
(l, kappa) of SECTORS.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

# nodeless (l, kappa): kappa = 1 and 1/2 (closed form and finite-sum I0),
# general kappa (series I0), l = 0 and 1 (U+ cancelled as U- + 2 W' there),
# one kappa below 1/4, and a large kappa and a large l, where rho^(2 kappa)
# and rho^(l+1) are subnormal near 1e-12 while V and the wavefunction are
# not
SECTORS = ((0, 1.0), (1, 1.0), (2, 1.0), (1, 0.5), (3, 0.5), (0, 0.7), (2, 2.0), (1, 0.25),
           (3, 3 / 49), (0, 13.6), (25, 1.0))
# rho^2 overflows past 1.3e154, and rho^(2 kappa) earlier at kappa = 2;
# 15 and 17 flank the root of U+ at (1, 1/4)
NAMED = (1e-12, 1.0, 15.0, 17.0, 1e8, 1e52, 2e154, 1e307, 1.7e308, float(np.finfo(float).max))
SEED = 36
EVALUATORS = ("v", "u_minus", "u_plus", "w", "f", "df", "wavefunction", "i0")


def sweep(n):
    """n seeded log-uniform radii on [1e-12, 1.7e308], 40 on [0.05, 4], then NAMED."""
    logs = np.random.default_rng(SEED).uniform(math.log(1e-12), math.log(1.7e308), n)
    return np.concatenate([np.exp(logs), np.linspace(0.05, 4.0, 40), NAMED])


def p_rounds(l, kappa):
    """Whether p = (2l+1)/(2 kappa) is not a float, so that f carries its rounding."""
    return Fraction(2 * l + 1, 2) / Fraction(kappa) != (2 * l + 1) / (2 * kappa)


def _u_plus(rho, l, kappa):
    """(U+, terms) as W^2 + W', with the terms of its collected form
    (l(l-1) + (2l+1) y (2y - (2l-1-2 kappa) x)) / rho^2.

    W^2 + W' cancels by W^2 / terms: up to 1/y = 1 + t at l = 1 (1/y^2 at
    kappa = 1/2), not at all at l = 0 or l >= 2.  So U+ takes the digits of
    that ratio, found at 20 digits, on top of its 40.  Past 700 of them U+
    is far below the float range, and 740 digits keep its absolute error
    far below the smallest subnormal.
    """
    def parts():
        r, k = mpmath.mpf(rho), mpmath.mpf(kappa)
        t = r ** (2 * k)
        x, y = t / (1 + t), 1 / (1 + t)
        w = (l - (2 * l + 1) * y) / r
        dw = (-l + (2 * l + 1) * (1 + (1 + 2 * k) * t) * y**2) / r**2
        terms = (l * (l - 1) + (2 * l + 1) * y * (2 * y + abs(2 * l - 1 - 2 * k) * x)) / r**2
        return w**2, dw, terms

    with mpmath.workdps(20):
        w2, _, terms = parts()
        extra = min(700, int(mpmath.log10(1 + w2 / terms)) + 1)
    with mpmath.workdps(40 + extra):
        w2, dw, terms = parts()
        return w2 + dw, terms


def _i0(rho, l, kappa, decades):
    """(I0, |I0|) as B_x(a, b) / 2 kappa, through B(a, b) - B_y(b, a) past x = 1/2.

    Where B(a, b) is infinite, B_x(a, b) takes enough digits to resolve 1 - x = y.
    """
    b = (2 * l - 1) / (2 * kappa)
    pole = b <= 0 and b == int(b)
    with mpmath.workdps(40 + int(decades if pole else 0)):
        r, k = mpmath.mpf(rho), mpmath.mpf(kappa)
        t = r ** (2 * k)
        x, y = t / (1 + t), 1 / (1 + t)
        a, b = (2 * l + 3) / (2 * k), (2 * l - 1) / (2 * k)
        if x > 0.5 and not pole:
            value = (mpmath.beta(a, b) - mpmath.betainc(b, a, 0, y)) / (2 * k)
        else:
            value = mpmath.betainc(a, b, 0, x) / (2 * k)
        return value, abs(value)


def exact(rho, l, kappa, names=EVALUATORS):
    """{name: (value, terms)} of the evaluators `names` at the float radius rho.

    The values are mpmath numbers.  The radial wavefunction is the degree-2
    state f/rho C_2^q(y - x), q = p + 1/2, with C_2^q(z) = 2q(q+1) z^2 - q,
    and its terms are f/rho C_2^q(1).
    """
    out = {}
    if "u_plus" in names:
        out["u_plus"] = _u_plus(rho, l, kappa)
    if "i0" in names:
        decades = 2 * kappa * max(0.0, math.log10(rho))  # of 1/y = 1 + rho^(2 kappa)
        out["i0"] = _i0(rho, l, kappa, decades)
    with mpmath.workdps(40):
        r, k = mpmath.mpf(rho), mpmath.mpf(kappa)
        t = r ** (2 * k)
        x, y = t / (1 + t), 1 / (1 + t)
        p = (2 * l + 1) / (2 * k)
        f = r ** (l + 1) * (1 + t) ** -p
        # the coupling V is given as a float; U- has the exact nodeless one
        v = -mpmath.mpf(float((2 * l + 1) * (2 * l + 1 + 2 * kappa))) * x * y / r**2
        v_nodeless = -(2 * l + 1) * (2 * l + 1 + 2 * k) * x * y / r**2
        centrifugal = l * (l + 1) / r**2
        q = p + mpmath.mpf(0.5)
        g2 = 2 * q * (q + 1)
        out.update({
            "v": (v, abs(v)),
            "u_minus": (centrifugal + v_nodeless, centrifugal - v_nodeless),
            "w": ((l - (2 * l + 1) * y) / r, (l + (2 * l + 1) * y) / r),
            "f": (f, f),
            "df": (f / r * ((l + 1) - l * t) * y, f / r * ((l + 1) + l * t) * y),
            "wavefunction": (f / r * (g2 * (y - x) ** 2 - q), f / r * (g2 - q)),
        })
    return {name: out[name] for name in names}


def family(rho, l, kappa, lam):
    """{name: (value, terms)} of the family at lam and the float radius rho.

    u_bos = U- - a + b and f_bos = f/(I0+lam), with a = 4 f f'/(I0+lam)
    and b = 2 f^4/(I0+lam)^2, from exact()'s U-, f, f' and I0.  At
    kappa = 1 also the fish-eye index: the first-order ratio
    (a - b) / 2 V_M, with V_M = -V = (2l+1)(2l+3) / (1+rho^2)^2, its
    n_iso = n_M (1 + ratio), and the exact index
    sqrt(V_M + a - b) / (l + 1/2) as "index", whose terms are its value;
    it reads 0 where V_M + a - b <= 0 and the index is undefined.
    """
    names = ("v", "u_minus", "f", "df", "i0")
    (v, _), (u, u_terms), (f, _), (df, _), (i0, _) = exact(rho, l, kappa, names).values()
    with mpmath.workdps(40):
        d = i0 + lam
        a, b = 4 * f * df / d, 2 * f**4 / d**2
        out = {"u_bos": (u - a + b, u_terms + abs(a) + b), "f_bos": (f / d, f / d)}
        if kappa == 1.0:
            ratio = (a - b) / (-2 * v)
            half = l + mpmath.mpf(0.5)
            n_m = mpmath.sqrt((2 * l + 1) * (2 * l + 3)) / half / (1 + mpmath.mpf(rho) ** 2)
            index = mpmath.sqrt(max(-v + a - b, 0)) / half
            out.update({"ratio": (ratio, (abs(a) + b) / (-2 * v)),
                        "n_iso": (n_m * (1 + ratio), n_m * (1 + abs(ratio))),
                        "index": (index, index)})
        return out
