#!/usr/bin/env python3
"""Scan the sinc-DVR grid size against the eigen-oracle's error budget.

For each odd grid size N the script sets numerics.DVR_POINTS to N and
reports what the five eigen-oracle checks of verify see: the residuals of
rm-ladder, family-spectrum-invariance and aufbau-ground-state, the pass
state of the two count checks (rm-partner-deficit, shooting-completeness),
the discretisation change (the largest change of any bound state of the
suite's 12 wells against the same well on a 401-point grid over the same
domain) and the median in-process time of the five checks.  The wells,
with their domains, are verify.DVR_WELLS.  The last line names the smallest
N whose residuals are all at most their 201-point values and whose
discretisation change is at most 1e-9.  Run it with BLAS threads pinned to
1, or the times follow the thread count.

Usage:
    OPENBLAS_NUM_THREADS=1 python scripts/dvr_grid_scan.py
    OPENBLAS_NUM_THREADS=1 python scripts/dvr_grid_scan.py --points 121 141 201 --rounds 21
"""

import argparse
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from susy_fisheye import numerics, verify

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


@contextmanager
def grid_size(points):
    """numerics.DVR_POINTS set to `points` inside the block."""
    saved = numerics.DVR_POINTS
    numerics.DVR_POINTS = points
    try:
        yield
    finally:
        numerics.DVR_POINTS = saved


def bound_states(points):
    """The bound states of every well of verify.DVR_WELLS on a grid of `points` points."""
    with grid_size(points):
        return [numerics.dvr_bound_states(w.potential, domain=w.domain) for w in WELLS]


def discretisation_change(states, reference):
    """Largest |E_N - E_ref| over every bound state; inf if a count differs."""
    worst = 0.0
    for got, ref in zip(states, reference):
        if len(got) != len(ref):
            return float("inf")
        worst = max([worst] + [abs(a - b) for a, b in zip(got, ref)])
    return worst


def measure(points, rounds):
    """(results by name, median ms of the five checks) at `points` points."""
    with grid_size(points):
        results = {r.name: r for r in (check() for check in CHECKS)}
        times = []
        for _ in range(rounds):
            t0 = perf_counter()
            for check in CHECKS:
                check()
            times.append((perf_counter() - t0) * 1e3)
    return results, float(np.median(times))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, nargs="+", default=list(range(101, 202, 2)))
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args(argv)
    if any(n % 2 == 0 for n in args.points):
        parser.error("grid sizes must be odd")

    reference = bound_states(REFERENCE)
    baseline = measure(BASELINE, 1)[0]
    print(f"discretisation change against {REFERENCE} points; residuals at most "
          f"their {BASELINE}-point values; budget {BUDGET:.0e}")
    print(f"{'N':>4} {'rm-ladder':>10} {'family':>10} {'aufbau':>10} "
          f"{'partner':>8} {'complete':>8} {'disc':>9} {'ms':>6}  ok")
    chosen = None
    for points in args.points:
        results, ms = measure(points, args.rounds)
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
