#!/usr/bin/env python3
"""Compare the closed-form evaluators of two checkouts value by value, in one process.

Both checkouts' src/susy_fisheye are imported side by side (two_trees.py).
Each evaluator of EVALUATORS (V, U-, U+, W, f, f', the radial
wavefunction at degree 2 and I0) runs on both trees at every (l, kappa)
of exact.SECTORS, over the fixed sweep exact.sweep(N).  So do the family
columns U_bos and f_bos at each lam of LAMBDAS, and, at the kappa = 1
sectors, the fish-eye index in both modes: the first-order ratio and
n_iso, and the exact index.  An array call that raises is redone one
radius at a time, so an exception is counted per value; the
RuntimeWarnings of the calls are counted too.  For each evaluator the
script prints:

- the values that changed (any bit, the sign of zero included);
- the non-finite values, the exceptions and the warnings on each side;
- each side's worst error against exact.exact or exact.family, the
  40-digit mpmath reference, over every changed value, and the count of
  changed values whose error rose by more than VALUE_MARGIN.  The error is
  |value - exact| over |exact| for V, U+, f, I0, f_bos and the exact
  index, and over the sum of the term magnitudes for U-, W, f', the
  wavefunction, U_bos, the ratio and n_iso, which have roots; the scale
  is floored at the smallest normal float, so an
  underflowed value counts by its absolute error.  A value that is not
  finite or raised has an infinite error.

It exits 1 if, for any evaluator, the change has more non-finite values or
more exceptions than the parent, its worst error exceeds the parent's by
more than MARGIN, or one value's error rose by more than VALUE_MARGIN;
otherwise 0.  The last is taken value by value, so an infinite error of
the parent at one radius hides no lost digit at another.

Usage:
    python scripts/values_ab.py --parent DIR --change DIR
    python scripts/values_ab.py --parent DIR --change DIR --json values.json

The sweep and LAMBDAS are fixed, not options, and every changed value is
checked, so that a comparison cannot be run on radii chosen to miss a
regression.
"""

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from exact import SECTORS, SEED, exact, family, sweep  # noqa: E402
from two_trees import SIDES, load  # noqa: E402

# Largest rise of the worst error that is not refused: about 4.5 ulp of
# the scale.
MARGIN = 1e-15
# Largest rise of one value's error that is not refused: about 45 ulp.  A
# new evaluation order moves single values by a few ulp in both directions
# (U+ collected, 4e-17 -> 1.6e-15 at l = 3, kappa = 1/2, rho = 2.42); a
# lost digit is 1e-15 times more.
VALUE_MARGIN = 1e-14
N = 2000  # log-uniform radii of the sweep
# log-uniform lam of the family and index evaluators, seeded like the sweep
LAMBDAS = tuple(float(lam) for lam in np.exp(
    np.random.default_rng(SEED).uniform(math.log(1e-3), math.log(1e3), 3)))
TINY = float(np.finfo(float).tiny)


def _wavefunction(m, r, l, kappa, _lam):
    params = m["do_core"].DoParams.nodeless(kappa, l)
    return m["do_core"].radial_wavefunction(r, m["do_core"].DoParams(kappa, l, params.N + 2))


def _family(column):
    def fn(m, r, l, kappa, lam):
        params = m["do_core"].DoParams.nodeless(kappa, l, lam)
        return m["isospectral"].family_columns(r, params)[column]
    return fn


def _index(column, exact_mode=False):
    return lambda m, r, l, kappa, lam: m["fisheye"].index_columns(r, l, lam, exact_mode)[column]


# name -> evaluator(modules, r, l, kappa, lam); those of FAMILY take lam,
# and those of INDEX run at kappa = 1 only
EVALUATORS = {
    "v": lambda m, r, l, k, _: m["do_core"].potential_v(r, k,
                                                        m["do_core"].nodeless_coupling(l, k)),
    "u_minus": lambda m, r, l, k, _: m["do_core"].u_minus(r, l, k),
    "u_plus": lambda m, r, l, k, _: m["do_core"].u_plus(r, l, k),
    "w": lambda m, r, l, k, _: m["do_core"].superpotential_w(r, l, k),
    "f": lambda m, r, l, k, _: m["do_core"].radial_factor_f(r, l, k),
    "df": lambda m, r, l, k, _: m["do_core"].radial_factor_df(r, l, k),
    "wavefunction": _wavefunction,
    "i0": lambda m, r, l, k, _: m["isospectral"].i0(r, l, k),
    "u_bos": _family(1),
    "f_bos": _family(3),
    "n_iso": _index(1),
    "ratio": _index(2),
    "index": _index(1, exact_mode=True),
}
FAMILY = ("u_bos", "f_bos", "n_iso", "ratio", "index")
INDEX = ("n_iso", "ratio", "index")
MODULES = ("do_core", "isospectral", "fisheye")


def _cases(name, sectors):
    """The (l, kappa, lam) an evaluator runs at; lam is None where it takes none."""
    if name not in FAMILY:
        return [(l, kappa, None) for l, kappa in sectors]
    return [(l, kappa, lam) for l, kappa in sectors if name not in INDEX or kappa == 1.0
            for lam in LAMBDAS]


def _run(fn, modules, r, l, kappa, lam):
    """(values, raised, warned, first error) of fn on the radii r; NaN where a radius raised.

    Any exception an evaluator raises is counted, not propagated: a tree
    that raises where the other does not is what the comparison reports.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            return np.asarray(fn(modules, r, l, kappa, lam), dtype=float), 0, len(caught), None
        except Exception:  # the array call raised: count the radii that do
            pass
        values = np.full(r.shape, np.nan)
        raised, first = 0, None
        for i, one in enumerate(r):
            try:
                values[i] = fn(modules, float(one), l, kappa, lam)
            except Exception as exc:
                raised += 1
                where = f"l = {l}, kappa = {kappa:g}" + ("" if lam is None else f", lam = {lam:g}")
                first = first or f"{type(exc).__name__}: {exc} ({where})"
        return values, raised, len(caught), first


def _errors(name, got, rho, l, kappa, lam):
    """|value - exact| / max(scale, TINY) of each side's value at one radius."""
    if lam is None:
        value, terms = exact(rho, l, kappa, (name,))[name]
    else:
        value, terms = family(rho, l, kappa, lam)[name]
    # U+ has roots, but it is held to |U+|, the scale its margins were set on
    floor = max(abs(value) if name == "u_plus" else terms, TINY)
    return {side: float(abs(float(v) - value) / floor) if math.isfinite(v) else math.inf
            for side, v in got.items()}


def compare(trees, n, sectors=SECTORS):
    """{evaluator: row} for the two trees {side: {module: ...}} of MODULES."""
    r = sweep(n)
    table = {}
    for name, fn in EVALUATORS.items():
        row = {"values": 0, "changed": 0}
        for side in SIDES:
            row.update({f"nonfinite_{side}": 0, f"raised_{side}": 0, f"warned_{side}": 0,
                        f"error_{side}": None})
        changed = []
        for l, kappa, lam in _cases(name, sectors):
            got = {}
            for side in SIDES:
                got[side], raised, warned, error = _run(fn, trees[side], r, l, kappa, lam)
                row[f"nonfinite_{side}"] += int(np.count_nonzero(~np.isfinite(got[side])))
                row[f"nonfinite_{side}"] -= raised
                row[f"raised_{side}"] += raised
                row[f"warned_{side}"] += warned
                row[f"error_{side}"] = row[f"error_{side}"] or error
            moved = got["parent"].view(np.int64) != got["change"].view(np.int64)
            row["values"] += r.size
            changed += [(i, l, kappa, lam, got["parent"][i], got["change"][i])
                        for i in np.flatnonzero(moved)]
        row["changed"] = len(changed)
        worst = {side: 0.0 for side in SIDES}
        row["worse"] = 0
        for i, l, kappa, lam, parent, change in changed:
            errs = _errors(name, {"parent": parent, "change": change}, float(r[i]), l, kappa, lam)
            worst = {side: max(worst[side], errs[side]) for side in SIDES}
            row["worse"] += errs["change"] > errs["parent"] + VALUE_MARGIN
        row.update({f"worst_{side}": worst[side] if changed else None for side in SIDES})
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
        if row["changed"] and row["worst_change"] > row["worst_parent"] + MARGIN:
            reasons.append(f"{name}: worst error {row['worst_change']:.3g}, "
                           f"{row['worst_parent']:.3g} at the parent")
        if row["worse"]:
            reasons.append(f"{name}: {row['worse']} values with an error more than "
                           f"{VALUE_MARGIN:g} above the parent's")
    return reasons


def _report(table):
    head = ("evaluator", "values", "changed", "nonfinite p/c", "raised p/c", "warned p/c",
            "worse", "worst parent", "worst change")
    print(f"{head[0]:13s}" + "".join(f"{h:>15s}" for h in head[1:]))
    for name, row in table.items():
        pairs = [f"{row[f'{w}_parent']}/{row[f'{w}_change']}"
                 for w in ("nonfinite", "raised", "warned")]
        worst = ["-" if row[f"worst_{s}"] is None else f"{row[f'worst_{s}']:.3g}"
                 for s in SIDES]
        cells = [row["values"], row["changed"], *pairs, row["worse"], *worst]
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
    trees = {side: {module: load(getattr(args, side), side, module) for module in MODULES}
             for side in SIDES}
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
            {"seed": SEED, "n": N, "lambdas": LAMBDAS, "margin": MARGIN,
             "value_margin": VALUE_MARGIN, "evaluators": table}, indent=1) + "\n")
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
