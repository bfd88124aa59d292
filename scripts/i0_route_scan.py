#!/usr/bin/env python3
"""Scan the two beta routes of isospectral.i0: route, terms, cost and error per sector.

For each (kappa, l) of KAPPAS and LS the script prints b = (2l-1)/2 kappa,
the route that i0 takes, read from a spy on _i0_finite ("sum", the
terminating sum of _i0_finite, or "series", the power series of
_i0_series; the kappa = 1 rows, where i0 takes the closed form, scan the
series), the number of terms that route sums (n = b for the sum; the
Horner length for the series), the median over ROUNDS of the microseconds
per call at each grid size of SIZES on logspace(1e-3, 50), and the largest
relative error against i0_quadrature on the largest grid (0 where both
are 0).
Where b is a positive integer both routes apply, and the row also times
the route not taken.
The last line names the largest b up to which the terminating sum is
faster than the series at every size and every integer b scanned: the
crossover behind isospectral._MAX_FINITE_TERMS.  It moves with the host's
noise from one run to the next.

Before it, one line per l gives the kappa = 1 closed form's largest
relative error against _i0_series on FAR_RADII log-spaced radii from 1 to
1e300, and the radius where it falls: the closed form needs no radius
limit where arctan(rho) rounds to pi/2 (from about 9e15).  At l = 0 the
closed form is rho - arctan(rho), exact to rounding, and the error is the
series' own.

The lines before those justify the complement's cancellation bounds of the
series at l >= 1: for each candidate bound, the sectors kappa = l/k < 1/4
(k from 4l+1 to 20l, b not an integer, l among LS) whose series error
exceeds 1e-12 with that bound below kappa = 1/4, and the scanned series
sectors at l >= 1 from kappa = 1/4 up whose switch (and so term count) that
bound would move there.  isospectral._MAX_CANCELLATION_SMALL_KAPPA is the
largest bound scanned that leaves no sector below 1/4 past 1e-12; from 1/4
up it would move switches that isospectral._MAX_CANCELLATION keeps.  Run
it with BLAS threads pinned to 1, or the times follow the thread count.
It takes no options.

Usage:
    OPENBLAS_NUM_THREADS=1 python scripts/i0_route_scan.py
"""

import argparse
import statistics
import timeit
from fractions import Fraction
from unittest import mock

import numpy as np

from susy_fisheye import isospectral
from susy_fisheye.do_core import _as_rho

BOUNDS = (1e3, 1e2, 10.0)
KAPPAS = ("1/2", "1/4", "1/6", "1/10", "1/16", "1/32", "1/64", "1/128", "0.7", "1", "1.5", "2")
LS = range(6)
SIZES = (50, 300, 600)
ROUNDS = 7
CALLS = 10
FAR_RADII = 4000


def routes(l, kappa):
    """{name: evaluator of the radii} for every route that applies to (l, kappa)."""
    a, b = (2 * l + 3) / (2.0 * kappa), (2 * l - 1) / (2.0 * kappa)
    out = {"series": lambda r: isospectral._i0_series(r, l, kappa)}
    if b >= 1.0 and b.is_integer():
        out["sum"] = lambda r: isospectral._i0_finite(r, a, int(b), kappa)
    return out


def taken(l, kappa):
    """"sum" where i0 calls _i0_finite at (l, kappa), else "series"."""
    with mock.patch.object(isospectral, "_i0_finite", wraps=isospectral._i0_finite) as spy:
        isospectral.i0(1.0, l, kappa)
    return "sum" if spy.called else "series"


def series_terms(evaluate):
    """The Horner length of the series that `evaluate` sums (it does not depend on the radii)."""
    with mock.patch.object(isospectral, "_horner", wraps=isospectral._horner) as horner:
        evaluate(_as_rho(1.0))
    return len(horner.call_args_list[0].args[0])


def relative_error(got, ref):
    """The largest |got/ref - 1|; 0 where both are 0, not 0/0."""
    return float(np.max(np.divide(np.abs(got - ref), ref, out=np.zeros_like(ref),
                                  where=got != ref)))


def bound_rows(r):
    """(bound, sectors below 1/4, those past 1e-12, worst error, moved switches) per bound.

    A moved switch is "kappa K l L: terms -> terms" for a series sector at
    l >= 1 from kappa = 1/4 up whose term count the bound changes there.
    """
    below = [(l, l / k) for l in LS if l >= 1 for k in range(4 * l + 1, 20 * l + 1)
             if not ((2 * l - 1) * k / (2.0 * l)).is_integer()]
    refs = [isospectral.i0_quadrature(r, l, kappa) for l, kappa in below]
    above = [(text, l, float(Fraction(text))) for text in KAPPAS for l in LS if l >= 1]
    above = [(text, l, kappa) for text, l, kappa in above
             if kappa >= 0.25 and taken(l, kappa) == "series"]

    def terms():
        return [series_terms(lambda x, l=l, kappa=kappa: isospectral._i0_series(x, l, kappa))
                for _, l, kappa in above]

    kept = terms()
    rows = []
    for bound in BOUNDS:
        with mock.patch.object(isospectral, "_MAX_CANCELLATION_SMALL_KAPPA", bound):
            errors = [relative_error(isospectral._i0_series(r, l, kappa), ref)
                      for (l, kappa), ref in zip(below, refs)]
        with mock.patch.object(isospectral, "_MAX_CANCELLATION", bound):
            moved = [f"kappa {text} l {l}: {old} -> {new}"
                     for (text, l, _), old, new in zip(above, kept, terms()) if new != old]
        rows.append((bound, len(below), sum(e > 1e-12 for e in errors), max(errors, default=0.0),
                     moved))
    return rows


def microseconds(evaluate, r):
    """Median over ROUNDS of the microseconds per call of evaluate(r)."""
    times = timeit.repeat(lambda: evaluate(r), setup="gc.enable()", repeat=ROUNDS, number=CALLS)
    return statistics.median(times) / CALLS * 1e6


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    grids = [np.logspace(-3.0, np.log10(50.0), n) for n in SIZES]
    print(f"radii logspace(1e-3, 50); us per call at {', '.join(map(str, SIZES))} "
          f"points; error against i0_quadrature at {SIZES[-1]} points; "
          f"_MAX_FINITE_TERMS = {isospectral._MAX_FINITE_TERMS}")
    print(f"{'kappa':>8} {'l':>2} {'b':>9} {'route':>6} {'terms':>5} "
          + " ".join(f"{'us@' + str(n):>8}" for n in SIZES)
          + f" {'error':>9}  other route: us")
    crossings = []
    for text in KAPPAS:
        kappa = float(Fraction(text))
        for l in LS:
            ways = routes(l, kappa)
            b = (2 * l - 1) / (2.0 * kappa)
            route = taken(l, kappa)
            cost = {name: [microseconds(f, r) for r in grids] for name, f in ways.items()}
            ref = isospectral.i0_quadrature(grids[-1], l, kappa)
            error = relative_error(ways[route](grids[-1]), ref)
            line = (f"{text:>8} {l:>2} {b:>9.4g} {route:>6} "
                    f"{int(b) if route == 'sum' else series_terms(ways['series']):>5} "
                    + " ".join(f"{us:>8.1f}" for us in cost[route])
                    + f" {error:>9.2e}")
            if len(ways) == 2:
                other = "series" if route == "sum" else "sum"
                line += f"  {other}: " + " ".join(f"{us:.1f}" for us in cost[other])
                crossings.append((b, all(s < t for s, t in zip(cost["sum"], cost["series"]))))
            print(line)
    for bound, n, past, worst, moved in bound_rows(grids[-1]):
        print(f"cancellation bound {bound:g}: below kappa = 1/4, {past} of {n} sectors past "
              f"1e-12 (worst {worst:.2e}); from 1/4 up, {len(moved)} switches move"
              + "".join(f"; {m}" for m in moved))
    far = np.logspace(0.0, 300.0, FAR_RADII)
    for l in LS:
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
