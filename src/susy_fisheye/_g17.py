"""Exact text of a float64 array in three styles, a chunk of values at a time.

The styles are CPython's `'%.17g' % v`, `float.__repr__(v)`, the shortest
digits that read back to v, and `'%.2f' % v` of a canvas coordinate
(`chunks_2f`, at the end of this docstring).  Each value x of the first
two is written from
E = floor(log10|x|) and a 17-digit integer N in [10**16, 10**17):

* product: |x| * 10**(16 - E) is a double-double, the exact product of the
  frexp mantissa of |x| with a 106-bit power of ten (Dekker's two-product).
  Its error is about 1e-14 of a unit.  Where log10 misplaced E by one, the
  product falls outside [10**16, 10**17) and the value is scaled again with
  E -/+ 1.
* `%.17g` digits: N = round(product).  It rounds as the exact value does
  unless its fraction lies within `_TIE` of 1/2.
* repr digits: half an ulp of x = m * 2**e (frexp), scaled the same way, is
  H = 2**(max(e - 53, -1074) - 1) * 10**(16 - E).  The nearest p-digit
  value reads back to x exactly when its distance to the product is below
  H, and that is monotone in p, so p = 16, 15, ..., 1 is tried on the
  values that passed p + 1.  N is the nearest value of the smallest p that
  passes, or the rounded product when none does.  A value leaves the loop
  early once H is below half a step: a shorter value that reads back is
  then a multiple of the step within H of the product, the one already
  found, and the layout drops its trailing zeros.  For a normal x, H is
  below 11.1 units, so at most p = 16 and 15 are tried.
* exact fallback: a value is redone from CPython's own text (`%.16e`, which
  rounds ties to even, or repr) where a test above is unsure: a fraction
  within `_TIE` of 1/2, a distance within `_TIE` of H (of H times `_TIE`
  where H > 1, as for subnormals) or of a tie between two p-digit values,
  and a power of two, whose lower neighbour is half as far as its upper.
* layout: every value owns `_SLOTS` = 48 byte slots, six 8-byte words:
  sign 0.000 d0 . | d1 . d2 . d3 . d4 . | ... | d13 . d14 . d15 . d16 . |
  e +/- d d d separator NUL NUL.
  Tables indexed by E give the "0.000" prefix and the exponent; a table of
  4-digit groups gives the digits, each followed by a dot.  A mask indexed
  by (last digit shown, place of the point) then clears the digits and dots
  that are not written: fixed notation for -4 <= E < 17 (`%g`) or
  E < 16 (repr) without trailing zeros, a bare dot under `%g` and `.0`
  after an integer under repr, otherwise d.ddde+XX with at least two
  exponent digits.  Cleared slots hold NUL, which bytes.translate deletes.

Chunks of `CHUNK` values keep the temporaries in cache.  On a small table
numpy's per-call overhead costs more than the CPython writers spend, so
the CLI switches to this writer by size alone, at each style's crossover
(scripts/csv_writer_scan.py): cli._columns_csv at cli._CSV_SWITCH
values, cli._columns_json at one chunk.  They take finite tables only:
cli._grid_output refuses a non-finite value before it writes, and `chunks`
raises ValueError on one.

`%.2f` takes finite v >= 0 whose text has at most four integer digits, so
its two decimals are the integer round(100 v), below 10**6, rounded half to
even on the exact binary value as CPython rounds (`'%.2f' % 0.125` is
'0.12', `'%.2f' % 0.375` is '0.38'):

* p + err = 100 v exactly (Dekker's two-product; 100 splits exactly), and
  k = floor(p), d = (p - k) - 1/2 are exact because p < 2**20.
* Where d != 0, |d| >= ulp(p) > |err|, so the sign of d decides; where
  d = 0, the sign of err does, and where err = 0 too, v is a tie and k
  rounds up when it is odd.  No value needs a fallback.
* layout: one 8-byte word per value, four integer slots (leading zeros
  NUL, the units always shown), the point, two digits and the separator,
  from a table of 10**4 integer parts and one of 100 fractions.  These
  tables are built apart from the ones above, so a polyline does not pay
  for the 106-bit powers of ten.

A value outside the domain raises ValueError.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["CHUNK", "chunks", "chunks_2f"]

CHUNK = 4096

# 10**k is tabulated for k in [_K_MIN, _K_MAX]: 16 - E for every finite
# nonzero double (E in [-324, 308]), widened by one for the E -/+ 1 pass.
_K_MIN, _K_MAX = -293, 341
_E_MIN, _E_MAX = 16 - _K_MAX, 16 - _K_MIN
_TIE = 1e-6
_SLOTS = 48
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64
_LOW, _HIGH = 10**16, 10**17


def _words(rows):
    """Rows of 8 bytes packed into uint64 words."""
    return np.frombuffer(b"".join(bytes(r) for r in rows), np.uint64)


@functools.cache
def _tables():
    """The lookup tables, built on first use.

    A process that never writes a large table pays nothing for them.

    * hi, lo, s: 10**k = (hi + lo) * 2**s with hi in [1, 2), to 106 bits,
      by exact integer arithmetic;
    * prefix[E]: word 0 with "0.000" as fixed notation writes it for E < 0,
      and a dot after d0;
    * exponent[E]: word 5, "e+XX" or "e-XXX";
    * quad[g]: the four digits of g < 10**4, each followed by a dot;
    * zeros[g]: the trailing zeros of g < 10**4, 4 for g = 0;
    * mask[17 L + P + 1]: the slots shown when d0 .. d_L are written and
      the point follows d_P (P = -1: no point among the digits).
    """
    hi, lo, s = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        exp = num.bit_length() - den.bit_length()
        while True:
            shift = 105 - exp
            t = (num << shift) // den if shift >= 0 else num // (den << -shift)
            if t >> 106:
                exp += 1
            elif not t >> 105:
                exp -= 1
            else:
                break
        hi.append((t >> 53) * 2.0**-52)
        lo.append((t & (2**53 - 1)) * 2.0**-105)
        s.append(exp)
    prefix, exponent = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        lead = b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b""
        prefix.append(b"\0" + lead.ljust(5, b"\0") + b"\0.")
        exponent.append((b"e%+03d" % e).ljust(8, b"\0"))
    g = np.arange(10**4)
    quad = np.full((10**4, 8), ord("."), np.uint8)
    quad[:, ::2] = g[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    zeros = sum(g % 10**j == 0 for j in range(1, 5))
    # mask[last, point]: digit i sits in slot 6 + 2 i and its dot in 7 + 2 i
    i = np.arange(17)
    last, point = np.arange(17)[:, None, None], np.arange(-1, 16)[:, None]
    mask = np.full((17, 17, _SLOTS), 0xFF, np.uint8)
    mask[..., 6:40:2] = (i <= last) * 0xFF
    mask[..., 7:40:2] = (i == point) * 0xFF
    table = {
        "hi": np.array(hi),
        "lo": np.array(lo),
        "s": np.array(s, np.int32),
        "prefix": _words(prefix),
        "exponent": _words(exponent),
        "quad": quad.view(np.uint64).ravel(),
        "zeros": zeros,
        "mask": mask.view(np.uint64).reshape(-1, _SLOTS // 8),
    }
    for column in table.values():
        column.flags.writeable = False
    return table


def _scaled(mant, expo, e10):
    """floor(v) as int64 and v - floor(v), for v = mant * 2**expo * 10**(16 - e10)."""
    t = _tables()
    k = 16 - e10 - _K_MIN
    h = t["hi"].take(k)
    scale = expo + t["s"].take(k)
    # Dekker's two-product: mant * h == p + err exactly
    p = mant * h
    c = _SPLIT * mant
    mh = c - (c - mant)
    ml = mant - mh
    c = _SPLIT * h
    hh = c - (c - h)
    hl = h - hh
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl
    v_hi = np.ldexp(p, scale)
    v_lo = np.ldexp(err + mant * t["lo"].take(k), scale)
    whole = np.floor(v_hi)
    frac = (v_hi - whole) + v_lo
    below = np.floor(frac)
    frac -= below
    return whole.astype(np.int64) + below.astype(np.int64), frac


def _exact(value, shortest):
    """(N, E) of one value > 0 from CPython's own text: repr, or `%.16e`."""
    if not shortest:
        digits, _, exponent = ("%.16e" % value).partition("e")
        return int(digits.replace(".", "")), int(exponent)
    mantissa, _, exponent = float.__repr__(value).partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = whole + fraction
    lead = len(digits) - len(digits.lstrip("0"))
    digits = digits.strip("0")
    return int(digits) * 10 ** (17 - len(digits)), len(whole) - 1 - lead + int(exponent or 0)


def _shorten(n, floor, frac, mant, expo, unsure):
    """Set n to the shortest digits that read back, where the tests are sure.

    n is left with trailing zeros, which the layout drops.  Marks in
    `unsure` every value whose test came within `_TIE` of its bound.
    """
    half = np.ldexp(floor / mant, np.maximum(expo - 53, -1074) - 1 - expo)
    slack = _TIE * np.maximum(half, 1.0)
    # a distance below `sure` reads back, one below `near` may
    sure, near = half - slack, half + slack
    active = ~unsure
    for p in range(16, 0, -1):
        step = 10 ** (17 - p)
        q = floor // step
        # v less the p-digit value below it and half a step, int64 first so
        # that it is exact where it is small; the nearest p-digit value is
        # step/2 - |c| away
        c = ((floor - q * step) - step // 2) + frac
        gap = np.abs(c)
        dist = step / 2 - gap
        ok = active & (dist < sure)
        doubt = active & ((gap < _TIE) | (~ok & (dist < near)))
        if doubt.any():
            unsure |= doubt
            ok &= ~doubt
        np.copyto(n, (q + (c > 0)) * step, where=ok)
        # once H is below half a step, n is final up to its trailing zeros
        active = ok & (near >= step / 2)
        if not active.any():
            break


def _digits(a, shortest):
    """(N, E) of each value of `a`, finite and >= 0; 0 gives (0, 0)."""
    zero = a == 0.0
    a = np.where(zero, 1.0, a)
    mant, expo = np.frexp(a)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    floor, frac = _scaled(mant, expo, e10)
    unsure = (floor < _LOW) | (floor >= _HIGH)
    if unsure.any():
        idx = np.flatnonzero(unsure)
        e10[idx] += np.where(floor[idx] >= _HIGH, 1, -1)
        floor[idx], frac[idx] = _scaled(mant[idx], expo[idx], e10[idx])
        unsure[idx] = (floor[idx] < _LOW) | (floor[idx] >= _HIGH)
    n = floor + (frac > 0.5)
    unsure |= np.abs(frac - 0.5) < _TIE
    if shortest:
        # a power of two: the interval that reads back is asymmetric
        unsure |= mant == 0.5
        _shorten(n, floor, frac, mant, expo, unsure)
    # a value just below 10**(E + 1) rounds up to N = 10**17
    top = n == _HIGH
    n[top] = _LOW
    e10 += top
    for i in np.flatnonzero(unsure & ~zero):
        n[i], e10[i] = _exact(a[i], shortest)
    n[zero] = 0
    e10[zero] = 0
    return n, e10


def _chunk(x, seps, shortest):
    """The text of `x`, each value followed by its separator byte."""
    finite = np.isfinite(x)
    if not finite.all():
        v = x[finite.argmin()]
        style = "repr" if shortest else "'%.17g'"
        raise ValueError(f"{style} takes finite values, got v = {float(v)!r}")
    t = _tables()
    n, e10 = _digits(np.abs(x), shortest)
    d0 = n // 10**16
    rest = n - d0 * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    groups = np.empty((len(x), 4), np.int64)
    groups[:, 0] = upper // 10**4
    groups[:, 1] = upper - groups[:, 0] * 10**4
    groups[:, 2] = lower // 10**4
    groups[:, 3] = lower - groups[:, 2] * 10**4
    # trailing zeros of N from those of its groups, right to left
    zeros = t["zeros"].take(groups)
    empty = groups == 0
    tz = zeros[:, 3] + empty[:, 3] * (
        zeros[:, 2] + empty[:, 2] * (zeros[:, 1] + empty[:, 1] * zeros[:, 0])
    )
    last = np.where(n == 0, 0, 16 - tz)
    # fixed notation writes every digit up to the units and a point after
    # the units only when digits follow (below 1 the prefix holds it);
    # exponent notation writes a point after d0 when digits follow
    fixed = (e10 >= -4) & (e10 < (16 if shortest else 17))
    units = np.where(fixed & (e10 >= 0), e10, 0)
    below_one = fixed & (e10 < 0)
    point = np.where((last > units) & ~below_one, units, -1)
    if shortest:
        # repr writes an integer in fixed notation as d.0: d_{units+1} is 0
        whole = fixed & ~below_one & (point < 0)
        point = np.where(whole, units, point)
        last = np.where(whole, units + 1, last)
    last = np.maximum(last, units)

    out = np.empty((len(x), _SLOTS // 8), np.uint64)
    row = e10 - _E_MIN
    out[:, 0] = t["prefix"].take(row)
    out[:, 1:5] = t["quad"].take(groups)
    out[:, 5] = np.where(fixed, 0, t["exponent"].take(row))
    out &= t["mask"].take(17 * last + point + 1, axis=0)
    text = out.view(np.uint8)
    text[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    text[:, 6] = d0 + ord("0")
    text[:, 45] = seps
    return text.tobytes().translate(None, b"\0")


def chunks(values, seps, shortest=False):
    """Yield the text of each chunk of values, each value followed by its separator byte.

    The text is `'%.17g' % v`, or `float.__repr__(v)` when `shortest`.
    `values` is a 1-D float64 array of finite values and `seps` a uint8
    array of the same length, with no zero byte (it would be deleted with
    the padding).  A non-finite value raises ValueError.
    """
    for start in range(0, len(values), CHUNK):
        stop = start + CHUNK
        yield _chunk(values[start:stop], seps[start:stop], shortest)


@functools.cache
def _tables_2f():
    """The `%.2f` words of the integer part g < 10**4 and of the two decimals f < 100."""
    g = np.arange(10**4)
    whole = np.zeros((10**4, 8), np.uint8)
    place = np.array([1000, 100, 10, 1])
    # a digit is shown from the first nonzero one, and the units always
    shown = (g[:, None] >= place) | (place == 1)
    whole[:, :4] = np.where(shown, g[:, None] // place % 10 + ord("0"), 0)
    whole[:, 4] = ord(".")
    f = np.arange(100)
    frac = np.zeros((100, 8), np.uint8)
    frac[:, 5] = f // 10 + ord("0")
    frac[:, 6] = f % 10 + ord("0")
    table = {"whole": whole.view(np.uint64).ravel(), "frac": frac.view(np.uint64).ravel()}
    for column in table.values():
        column.flags.writeable = False
    return table


def _cents(v):
    """round(100 v) as int64, half to even on the exact value of each v in [0, 10**4)."""
    p = 100.0 * v
    # Dekker's two-product with 100 = 100 + 0: 100 v == p + err exactly
    c = _SPLIT * v
    vh = c - (c - v)
    err = (vh * 100.0 - p) + (v - vh) * 100.0
    k = np.floor(p)
    d = (p - k) - 0.5
    n = k.astype(np.int64)
    up = (d > 0.0) | ((d == 0.0) & ((err > 0.0) | ((err == 0.0) & (n & 1 == 1))))
    return n + up


def _chunk_2f(x, seps):
    """The `%.2f` text of `x`, each value followed by its separator byte."""
    inside = (x >= 0.0) & (x < 1e4) & ~np.signbit(x)
    if inside.all():
        n = _cents(x)
        inside = n < 10**6
    if not inside.all():
        v = x[inside.argmin()]
        raise ValueError(
            f"'%.2f' takes finite v >= 0 with at most four integer digits, got v = {float(v)!r}"
        )
    t = _tables_2f()
    hundreds = n // 100
    out = t["whole"].take(hundreds) | t["frac"].take(n - hundreds * 100)
    out |= seps.astype(np.uint64) << np.uint64(56)
    return out.tobytes().translate(None, b"\0")


def chunks_2f(values, seps):
    """Yield the `'%.2f' % v` text of each chunk of values, each followed by its separator byte.

    `values` is a 1-D float64 array of finite values v >= 0 written with at
    most four integer digits (below 9999.995), and `seps` a uint8 array of
    the same length with no zero byte.  A value outside raises ValueError.
    """
    for start in range(0, len(values), CHUNK):
        stop = start + CHUNK
        yield _chunk_2f(values[start:stop], seps[start:stop])
