#!/usr/bin/env python3
"""Compare the closed-form evaluators of two checkouts value by value, in one process.

Both checkouts' src/susy_fisheye are imported side by side (two_trees.py).
Each evaluator of EVALUATORS (V, U-, U+, W, f, f', the radial
wavefunction at degree 2 and I0) runs on both trees, at every nodeless
(l, kappa) of SECTORS, over one fixed sweep: N log-uniform radii on
[1e-12, 1.7e308], drawn with the seed SEED, plus the edge radii of NAMED.
An array call that raises is redone one radius at a time, so an exception
is counted per value; the RuntimeWarnings of the calls are counted too.
For each evaluator the script prints:

- the values that changed (any bit, the sign of zero included);
- the non-finite values, the exceptions and the warnings on each side;
- where mpmath is importable, each side's worst error against it over
  every changed value, and the count of changed values whose error rose
  by more than VALUE_MARGIN.  The error is |value - exact| over a scale:
  |exact| for V, U+, f and I0, and the sum of the magnitudes of the
  defining terms for U-, W, f' and the wavefunction, which have roots;
  the scale is floored at the smallest normal float, so an underflowed
  value counts by its absolute error.  A value that is not finite or
  raised has an infinite error.  U+ is referenced as W^2 + W' with enough
  digits that the sum does not cancel, and I0 as the incomplete beta
  function B_x(a, b) / 2 kappa, through its complement B(a, b) - B_y(b, a)
  past x = 1/2.

It exits 1 if, for any evaluator, the change has more non-finite values or
more exceptions than the parent, its worst error exceeds the parent's by
more than MARGIN, or one value's error rose by more than VALUE_MARGIN;
otherwise 0.  The last is taken value by value, so an infinite error of
the parent at one radius hides no lost digit at another.

Usage:
    python scripts/values_ab.py --parent DIR --change DIR
    python scripts/values_ab.py --parent DIR --change DIR --json values.json

The sweep is fixed, not an option, and every changed value is checked, so
that a comparison cannot be run on radii chosen to miss a regression.
"""

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from two_trees import SIDES, load  # noqa: E402

# nodeless (l, kappa): kappa = 1 and 1/2 (closed form and finite-sum I0),
# general kappa (series I0), l = 0 and 1 (U+ cancelled at the parent of the
# collected form), one kappa below 1/4, and a large kappa and a large l,
# where rho^(2 kappa) and rho^(l+1) are subnormal near 1e-12 while V and
# the wavefunction are not
SECTORS = ((0, 1.0), (1, 1.0), (2, 1.0), (1, 0.5), (3, 0.5), (0, 0.7), (2, 2.0), (1, 0.25),
           (3, 3 / 49), (0, 13.6), (25, 1.0))
NAMED = (1e-12, 1.0, 1e8, 1e52, 2e154, 1e307, 1.7e308, float(np.finfo(float).max))
# Largest rise of the worst error that is not refused: about 4.5 ulp of
# the scale.
MARGIN = 1e-15
# Largest rise of one value's error that is not refused: about 45 ulp.  A
# new evaluation order moves single values by a few ulp in both directions
# (U+ collected, 4e-17 -> 1.6e-15 at l = 3, kappa = 1/2, rho = 2.42); a
# lost digit is 1e-15 times more.
VALUE_MARGIN = 1e-14
SEED = 36
N = 2000  # log-uniform radii of the sweep
TINY = float(np.finfo(float).tiny)


def _exact(mp, name, rho, l, kappa):
    """(exact value, scale) of evaluator `name` at the float radius rho, by mpmath."""
    mpf = mp.mpf
    decades = 2 * kappa * max(0.0, math.log10(rho))  # of 1/y = 1 + rho^(2 kappa)
    b = (2 * l - 1) / (2 * kappa)
    pole = b <= 0 and b == int(b)  # B(a, b) is infinite: I0 by B_x(a, b), near x = 1
    # W^2 + W' cancels by up to y^2; B_x(a, b) must resolve 1 - x = y.  Past
    # 700 lost digits U+ is far below the float range, and 740 keep its
    # absolute error far below the smallest subnormal
    extra = min(700, 2 * decades) if name == "u_plus" else decades if name == "i0" and pole else 0
    with mp.workdps(40 + int(extra)):
        r, k = mpf(rho), mpf(kappa)
        t = r ** (2 * k)
        x, y = t / (1 + t), 1 / (1 + t)
        p = (2 * l + 1) / (2 * k)
        f = r ** (l + 1) * (1 + t) ** -p
        if name == "v":
            w = mpf(float((2 * l + 1) * (2 * l + 1 + 2 * kappa)))  # the coupling V is given
            v = -w * x * y / r**2
            return v, abs(v)
        if name == "u_minus":
            v = -(2 * l + 1) * (2 * l + 1 + 2 * k) * x * y / r**2
            return l * (l + 1) / r**2 + v, l * (l + 1) / r**2 + abs(v)
        if name == "u_plus":
            w = l / r - (2 * l + 1) / (r * (1 + t))
            dw = -l / r**2 + (2 * l + 1) * (1 + (1 + 2 * k) * t) / (r**2 * (1 + t) ** 2)
            return w**2 + dw, abs(w**2 + dw)
        if name == "w":
            return l / r - (2 * l + 1) * y / r, (l + (2 * l + 1) * y) / r
        if name == "f":
            return f, f
        if name == "df":
            return f / r * ((l + 1) - l * t) / (1 + t), f / r * ((l + 1) + l * t) / (1 + t)
        if name == "wavefunction":
            q = p + mpf(0.5)
            return f / r * mp.gegenbauer(2, q, y - x), f / r * mp.gegenbauer(2, q, 1)
        a, b = (2 * l + 3) / (2 * k), (2 * l - 1) / (2 * k)
        if x > 0.5 and not pole:
            value = mp.beta(a, b) - mp.betainc(b, a, 0, y)
        else:
            value = mp.betainc(a, b, 0, x)
        return value / (2 * k), abs(value / (2 * k))


def _wavefunction(m, r, l, kappa):
    params = m["do_core"].DoParams.nodeless(kappa, l)
    return m["do_core"].radial_wavefunction(r, m["do_core"].DoParams(kappa, l, params.N + 2))


EVALUATORS = {
    "v": lambda m, r, l, k: m["do_core"].potential_v(r, k, m["do_core"].nodeless_coupling(l, k)),
    "u_minus": lambda m, r, l, k: m["do_core"].u_minus(r, l, k),
    "u_plus": lambda m, r, l, k: m["do_core"].u_plus(r, l, k),
    "w": lambda m, r, l, k: m["do_core"].superpotential_w(r, l, k),
    "f": lambda m, r, l, k: m["do_core"].radial_factor_f(r, l, k),
    "df": lambda m, r, l, k: m["do_core"].radial_factor_df(r, l, k),
    "wavefunction": _wavefunction,
    "i0": lambda m, r, l, k: m["isospectral"].i0(r, l, k),
}


def sweep(n):
    """The seeded radii: n log-uniform on [1e-12, 1.7e308], then NAMED."""
    rng = np.random.default_rng(SEED)
    logs = rng.uniform(math.log(1e-12), math.log(1.7e308), n)
    return np.concatenate([np.exp(logs), NAMED])


def _run(fn, modules, r, l, kappa):
    """(values, raised, warned, first error) of fn on the radii r; NaN where a radius raised.

    Any exception an evaluator raises is counted, not propagated: a tree
    that raises where the other does not is what the comparison reports.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            return np.asarray(fn(modules, r, l, kappa), dtype=float), 0, len(caught), None
        except Exception:  # the array call raised: count the radii that do
            pass
        values = np.full(r.shape, np.nan)
        raised, first = 0, None
        for i, one in enumerate(r):
            try:
                values[i] = fn(modules, float(one), l, kappa)
            except Exception as exc:
                raised += 1
                first = first or f"{type(exc).__name__}: {exc} (l = {l}, kappa = {kappa:g})"
        return values, raised, len(caught), first


def _errors(mp, name, got, rho, l, kappa):
    """|value - exact| / max(scale, TINY) of each side's value at one radius."""
    exact, scale = _exact(mp, name, rho, l, kappa)
    floor = max(scale, mp.mpf(TINY))
    return {side: float(abs(mp.mpf(v) - exact) / floor) if math.isfinite(v) else math.inf
            for side, v in got.items()}


def compare(trees, n, sectors=SECTORS):
    """{evaluator: row} for the two trees {side: {"do_core": ..., "isospectral": ...}}.

    Without mpmath no value is checked, and the worst errors are None.
    """
    try:
        import mpmath
    except ImportError:
        mpmath = None
    r = sweep(n)
    table = {}
    for name, fn in EVALUATORS.items():
        row = {"values": 0, "changed": 0}
        for side in SIDES:
            row.update({f"nonfinite_{side}": 0, f"raised_{side}": 0, f"warned_{side}": 0,
                        f"error_{side}": None})
        changed = []
        for l, kappa in sectors:
            got = {}
            for side in SIDES:
                got[side], raised, warned, error = _run(fn, trees[side], r, l, kappa)
                row[f"nonfinite_{side}"] += int(np.count_nonzero(~np.isfinite(got[side])))
                row[f"nonfinite_{side}"] -= raised
                row[f"raised_{side}"] += raised
                row[f"warned_{side}"] += warned
                row[f"error_{side}"] = row[f"error_{side}"] or error
            moved = got["parent"].view(np.int64) != got["change"].view(np.int64)
            row["values"] += r.size
            row["changed"] += int(np.count_nonzero(moved))
            changed += [(i, l, kappa, got["parent"][i], got["change"][i])
                        for i in np.flatnonzero(moved)]
        checked = changed if mpmath else []
        worst = {side: 0.0 for side in SIDES}
        row["worse"] = 0
        for i, l, kappa, parent, change in checked:
            errs = _errors(mpmath, name, {"parent": parent, "change": change}, r[i], l, kappa)
            worst = {side: max(worst[side], errs[side]) for side in SIDES}
            row["worse"] += errs["change"] > errs["parent"] + VALUE_MARGIN
        row["checked"] = len(checked)
        row.update({f"worst_{side}": worst[side] if checked else None for side in SIDES})
        table[name] = row
    return table


def verdict(table):
    """The reasons the change is refused, one per evaluator and test; empty if none."""
    reasons = []
    for name, row in table.items():
        for what in ("nonfinite", "raised"):
            if row[f"{what}_change"] > row[f"{what}_parent"]:
                reasons.append(f"{name}: {row[f'{what}_change']} {what} values, "
                               f"{row[f'{what}_parent']} at the parent")
        if row["checked"] and row["worst_change"] > row["worst_parent"] + MARGIN:
            reasons.append(f"{name}: worst error {row['worst_change']:.3g}, "
                           f"{row['worst_parent']:.3g} at the parent")
        if row["worse"]:
            reasons.append(f"{name}: {row['worse']} values with an error more than "
                           f"{VALUE_MARGIN:g} above the parent's")
    return reasons


def _report(table):
    head = ("evaluator", "values", "changed", "nonfinite p/c", "raised p/c", "warned p/c",
            "checked", "worse", "worst parent", "worst change")
    print(f"{head[0]:13s}" + "".join(f"{h:>15s}" for h in head[1:]))
    for name, row in table.items():
        pairs = [f"{row[f'{w}_parent']}/{row[f'{w}_change']}"
                 for w in ("nonfinite", "raised", "warned")]
        worst = ["-" if row[f"worst_{s}"] is None else f"{row[f'worst_{s}']:.3g}"
                 for s in SIDES]
        cells = [row["values"], row["changed"], *pairs, row["checked"], row["worse"], *worst]
        print(f"{name:13s}" + "".join(f"{c!s:>15s}" for c in cells))
    for name, row in table.items():
        for side in SIDES:
            if row[f"error_{side}"]:
                print(f"{name} on the {side} first raised {row[f'error_{side}']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout holding src/susy_fisheye")
    parser.add_argument("--change", required=True, help="checkout holding src/susy_fisheye")
    parser.add_argument("--json", help="also write the table to this file")
    args = parser.parse_args(argv)
    trees = {side: {module: load(getattr(args, side), side, module)
                    for module in ("do_core", "isospectral")} for side in SIDES}
    table = compare(trees, N)
    _report(table)
    reasons = verdict(table)
    for reason in reasons:
        print(f"worse: {reason}")
    if not reasons:
        print(f"no evaluator has more non-finite values or exceptions, a worst error more "
              f"than {MARGIN:g} above the parent's, or one value's error more than "
              f"{VALUE_MARGIN:g} above it")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seed": SEED, "n": N, "margin": MARGIN, "value_margin": VALUE_MARGIN,
             "evaluators": table}, indent=1) + "\n")
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
