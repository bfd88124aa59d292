#!/usr/bin/env python3
"""Scan the sinc-DVR grid size against the eigen-oracle's error budget.

For each odd grid size N of POINTS the script sets numerics.DVR_POINTS to
N and reports what the five eigen-oracle checks of verify see: the
residuals of rm-ladder, family-spectrum-invariance and aufbau-ground-state,
the pass state of the two count checks (rm-partner-deficit,
shooting-completeness), the discretisation change (the largest change of
any bound state of the suite's 12 wells against the same well on a
401-point grid over the same domain) and the median in-process time of the
five checks over ROUNDS rounds.  The wells, with their domains, are
verify.DVR_WELLS.  The last line names the smallest N whose residuals are
all at most their 201-point values and whose discretisation change is at
most 1e-9.  Run it with BLAS threads pinned to 1, or the times follow the
thread count.  It takes no options.

Usage:
    OPENBLAS_NUM_THREADS=1 python scripts/dvr_grid_scan.py
"""

import argparse
import statistics
import timeit
from unittest import mock

from susy_fisheye import numerics, verify

POINTS = range(101, 202, 2)
ROUNDS = 7
REFERENCE = 401
BASELINE = 201
BUDGET = 1e-9
VALUED = ("rm-ladder", "family-spectrum-invariance", "aufbau-ground-state")
COUNTED = ("rm-partner-deficit", "shooting-completeness")
CHECKS = (
    verify.check_rm_ladder,
    verify.check_rm_partner_deficit,
    verify.check_family_spectrum,
    verify.check_aufbau,
    verify.check_shooting_completeness,
)
WELLS = [well for group in verify.DVR_WELLS.values() for well in group]


def bound_states(points):
    """The bound states of every well of verify.DVR_WELLS on a grid of `points` points."""
    with mock.patch.object(numerics, "DVR_POINTS", points):
        return [numerics.dvr_bound_states(w.potential, domain=w.domain) for w in WELLS]


def discretisation_change(states, reference):
    """Largest |E_N - E_ref| over every bound state; inf if a count differs."""
    worst = 0.0
    for got, ref in zip(states, reference):
        if len(got) != len(ref):
            return float("inf")
        worst = max([worst] + [abs(a - b) for a, b in zip(got, ref)])
    return worst


def run_checks():
    """The five checks' results by name."""
    return {r.name: r for r in (check() for check in CHECKS)}


def measure(points):
    """(results by name, median ms of the five checks) at `points` points."""
    with mock.patch.object(numerics, "DVR_POINTS", points):
        results = run_checks()
        times = timeit.repeat(run_checks, setup="gc.enable()", repeat=ROUNDS, number=1)
    return results, statistics.median(times) * 1e3


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    reference = bound_states(REFERENCE)
    with mock.patch.object(numerics, "DVR_POINTS", BASELINE):
        baseline = run_checks()
    print(f"discretisation change against {REFERENCE} points; residuals at most "
          f"their {BASELINE}-point values; budget {BUDGET:.0e}")
    print(f"{'N':>4} {'rm-ladder':>10} {'family':>10} {'aufbau':>10} "
          f"{'partner':>8} {'complete':>8} {'disc':>9} {'ms':>6}  ok")
    chosen = None
    for points in POINTS:
        results, ms = measure(points)
        disc = discretisation_change(bound_states(points), reference)
        ok = (
            all(results[n].residual <= baseline[n].residual for n in VALUED)
            and all(results[n].passed for n in COUNTED)
            and disc <= BUDGET
        )
        if ok and chosen is None:
            chosen = points
        print(
            f"{points:>4} "
            + " ".join(f"{results[n].residual:>10.3e}" for n in VALUED)
            + " "
            + " ".join(f"{'PASS' if results[n].passed else 'FAIL':>8}" for n in COUNTED)
            + f" {disc:>9.2e} {ms:>6.2f}  {'yes' if ok else 'no'}"
        )
    print(f"smallest N meeting the budget: {chosen}")


if __name__ == "__main__":
    main()
