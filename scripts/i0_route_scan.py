#!/usr/bin/env python3
"""Scan the two routes of isospectral._i0_beta: route, terms, cost and error per sector.

For each (kappa, l) the script prints b = (2l-1)/2 kappa, the route that
_i0_beta takes ("sum", the terminating sum of _i0_finite, or "series", the
power series of _i0_series), the number of terms that route sums (n = b for
the sum; the Horner length for the series), the median microseconds per
call at each grid size on logspace(1e-3, 50), and the largest relative
error against i0_quadrature on the largest grid (0 where both are 0).
Where b is a positive integer both routes apply, and the row also times
the route not taken.
The last line names the largest b up to which the terminating sum is
faster than the series at every size and every integer b scanned: the
crossover behind isospectral._MAX_FINITE_TERMS.

Before it, one line per l gives the kappa = 1 closed form's largest
relative error against _i0_series on FAR_RADII log-spaced radii from 1 to
1e300, and the radius where it falls: the closed form needs no radius
limit where arctan(rho) rounds to pi/2 (from about 9e15).  At l = 0 the
closed form is rho - arctan(rho), exact to rounding, and the error is the
series' own.

The lines before those justify the complement's cancellation bounds of the
series at l >= 1: for each candidate bound, the sectors kappa = l/k < 1/4
(k from 4l+1 to 20l, b not an integer, l among --ls) whose series error
exceeds 1e-12 with that bound below kappa = 1/4, and the scanned series
sectors at l >= 1 from kappa = 1/4 up whose switch (and so term count) that
bound would move there.  isospectral._MAX_CANCELLATION_SMALL_KAPPA is the
largest bound scanned that leaves no sector below 1/4 past 1e-12; from 1/4
up it would move switches that isospectral._MAX_CANCELLATION keeps.  Run
it with BLAS threads pinned to 1, or the times follow the thread count.

Usage:
    OPENBLAS_NUM_THREADS=1 python scripts/i0_route_scan.py
    OPENBLAS_NUM_THREADS=1 python scripts/i0_route_scan.py --kappas 1/2 1/4 0.7 --ls 0 1 2 --rounds 21
"""

import argparse
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

import numpy as np

from susy_fisheye import isospectral
from susy_fisheye.do_core import _as_rho

BOUNDS = (1e3, 1e2, 10.0)
KAPPAS = ("1/2", "1/4", "1/6", "1/10", "1/16", "1/32", "1/64", "1/128", "0.7", "1", "1.5", "2")
CALLS = 10
FAR_RADII = 4000


@contextmanager
def horner_length(lengths):
    """Append the Horner length of every _horner call inside the block to `lengths`."""
    saved = isospectral._horner

    def counted(coeffs, column, w):
        lengths.append(len(coeffs))
        return saved(coeffs, column, w)

    isospectral._horner = counted
    try:
        yield
    finally:
        isospectral._horner = saved


def routes(l, kappa):
    """{name: evaluator of the radii} for every route that applies to (l, kappa)."""
    a, b = (2 * l + 3) / (2.0 * kappa), (2 * l - 1) / (2.0 * kappa)
    out = {"series": lambda r: isospectral._i0_series(r, l, kappa)}
    if b >= 1.0 and b.is_integer():
        out["sum"] = lambda r: isospectral._i0_finite(r, a, int(b), kappa)
    return out


def series_terms(evaluate):
    """The Horner length of the series that `evaluate` sums (it does not depend on the radii)."""
    lengths = []
    with horner_length(lengths):
        evaluate(_as_rho(1.0))
    return lengths[0]


@contextmanager
def cancellation_bounds(above, below):
    """Run the block with the complement's bounds from kappa = 1/4 up and below it set."""
    saved = isospectral._MAX_CANCELLATION, isospectral._MAX_CANCELLATION_SMALL_KAPPA
    isospectral._MAX_CANCELLATION, isospectral._MAX_CANCELLATION_SMALL_KAPPA = above, below
    try:
        yield
    finally:
        isospectral._MAX_CANCELLATION, isospectral._MAX_CANCELLATION_SMALL_KAPPA = saved


def relative_error(got, ref):
    """The largest |got/ref - 1|; 0 where both are 0, not 0/0."""
    return float(np.max(np.divide(np.abs(got - ref), ref, out=np.zeros_like(ref),
                                  where=got != ref)))


def bound_rows(bounds, ls, kappas, r):
    """(bound, sectors below 1/4, those past 1e-12, worst error, moved switches) per bound.

    A moved switch is "kappa K l L: terms -> terms" for a series sector at
    l >= 1 from kappa = 1/4 up whose term count the bound changes there.
    """
    below = [(l, l / k) for l in ls if l >= 1 for k in range(4 * l + 1, 20 * l + 1)
             if not ((2 * l - 1) * k / (2.0 * l)).is_integer()]
    refs = [isospectral.i0_quadrature(r, l, kappa) for l, kappa in below]
    above = [(text, l, float(Fraction(text))) for text in kappas for l in ls if l >= 1]
    above = [(text, l, kappa) for text, l, kappa in above
             if kappa >= 0.25 and not isospectral._finite_terms(l, kappa)]

    def terms():
        return [series_terms(lambda x, l=l, kappa=kappa: isospectral._i0_series(x, l, kappa))
                for _, l, kappa in above]

    kept = terms()
    rows = []
    for bound in bounds:
        with cancellation_bounds(isospectral._MAX_CANCELLATION, bound):
            errors = [relative_error(isospectral._i0_series(r, l, kappa), ref)
                      for (l, kappa), ref in zip(below, refs)]
        with cancellation_bounds(bound, isospectral._MAX_CANCELLATION_SMALL_KAPPA):
            moved = [f"kappa {text} l {l}: {old} -> {new}"
                     for (text, l, _), old, new in zip(above, kept, terms()) if new != old]
        rows.append((bound, len(below), sum(e > 1e-12 for e in errors), max(errors, default=0.0),
                     moved))
    return rows


def microseconds(evaluate, r, rounds):
    """Median over `rounds` of the microseconds per call of evaluate(r)."""
    times = []
    for _ in range(rounds):
        t0 = perf_counter()
        for _ in range(CALLS):
            evaluate(r)
        times.append((perf_counter() - t0) / CALLS * 1e6)
    return float(np.median(times))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kappas", nargs="+", default=list(KAPPAS),
                        help="kappa values, as decimals or fractions such as 1/6")
    parser.add_argument("--ls", type=int, nargs="+", default=list(range(6)))
    parser.add_argument("--sizes", type=int, nargs="+", default=[50, 300, 600])
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args(argv)

    grids = [np.logspace(-3.0, np.log10(50.0), n) for n in args.sizes]
    print(f"radii logspace(1e-3, 50); us per call at {', '.join(map(str, args.sizes))} "
          f"points; error against i0_quadrature at {args.sizes[-1]} points; "
          f"_MAX_FINITE_TERMS = {isospectral._MAX_FINITE_TERMS}")
    print(f"{'kappa':>8} {'l':>2} {'b':>9} {'route':>6} {'terms':>5} "
          + " ".join(f"{'us@' + str(n):>8}" for n in args.sizes)
          + f" {'error':>9}  other route: us")
    crossings = []
    for text in args.kappas:
        kappa = float(Fraction(text))
        for l in args.ls:
            ways = routes(l, kappa)
            b = (2 * l - 1) / (2.0 * kappa)
            n = isospectral._finite_terms(l, kappa)
            taken = "sum" if n else "series"
            cost = {name: [microseconds(f, r, args.rounds) for r in grids] for name, f in ways.items()}
            got = isospectral._i0_beta(grids[-1], l, kappa)
            ref = isospectral.i0_quadrature(grids[-1], l, kappa)
            error = relative_error(got, ref)
            line = (f"{text:>8} {l:>2} {b:>9.4g} {taken:>6} "
                    f"{n or series_terms(ways['series']):>5} "
                    + " ".join(f"{us:>8.1f}" for us in cost[taken])
                    + f" {error:>9.2e}")
            if len(ways) == 2:
                other = "series" if taken == "sum" else "sum"
                line += f"  {other}: " + " ".join(f"{us:.1f}" for us in cost[other])
                crossings.append((b, all(s < t for s, t in zip(cost["sum"], cost["series"]))))
            print(line)
    for bound, n, past, worst, moved in bound_rows(BOUNDS, args.ls, args.kappas, grids[-1]):
        print(f"cancellation bound {bound:g}: below kappa = 1/4, {past} of {n} sectors past "
              f"1e-12 (worst {worst:.2e}); from 1/4 up, {len(moved)} switches move"
              + "".join(f"; {m}" for m in moved))
    far = np.logspace(0.0, 300.0, FAR_RADII)
    for l in args.ls:
        ratio = np.abs(isospectral.i0_closed_one(far, l) / isospectral._i0_series(far, l, 1.0)
                       - 1.0)
        worst = int(np.argmax(ratio))
        print(f"kappa 1 closed form, l {l}: largest error {ratio[worst]:.2e} against the series "
              f"at rho = {far[worst]:.3g} of logspace(1, 1e300, {FAR_RADII})")
    faster = None
    for b, sum_faster in sorted(crossings):
        if not sum_faster:
            break
        faster = b
    print(f"terminating sum faster than the series at every size up to b = "
          f"{'none' if faster is None else f'{faster:g}'}")


if __name__ == "__main__":
    main()
