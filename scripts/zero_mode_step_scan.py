#!/usr/bin/env python3
"""Scan the start radius and step of verify's Langer zero-mode march.

verify marches the zero mode in x = ln rho from ln rho0 to ln 5 with a
step of at most h (verify.ZERO_MODE_START and verify.ZERO_MODE_STEP).  For
each pair (rho0, h) the script sets the two constants and reports what the
two zero-mode checks see: the residuals of zero-mode-particular and
zero-mode-family, the Numerov steps of the two checks (counted by wrapping
numerics.numerov_zero_energy) and their median in-process time.  The rule:
neither residual may exceed its value on the rho-grid of step 1e-3 that
the Langer march replaced.  The last line names the pair with the fewest
steps that meets it.  Run it with BLAS threads pinned to 1, or the times
follow the thread count.

Usage:
    OPENBLAS_NUM_THREADS=1 python scripts/zero_mode_step_scan.py
    OPENBLAS_NUM_THREADS=1 python scripts/zero_mode_step_scan.py --starts 1e-3 --rounds 21
"""

import argparse
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from susy_fisheye import numerics, verify

# the residuals of the rho-grid march (step 1e-3 from rho = 1e-3)
BASELINE = {
    "zero-mode-particular": 1.1537562724650563e-07,
    "zero-mode-family": 1.2673009187694182e-09,
}
CHECKS = (verify.check_zero_mode_particular, verify.check_zero_mode_family)


@contextmanager
def march(start, step):
    """verify's march constants set to (start, step) inside the block."""
    saved = verify.ZERO_MODE_START, verify.ZERO_MODE_STEP
    verify.ZERO_MODE_START, verify.ZERO_MODE_STEP = start, step
    try:
        yield
    finally:
        verify.ZERO_MODE_START, verify.ZERO_MODE_STEP = saved


@contextmanager
def counted_steps():
    """A list that collects the Numerov steps of every march inside the block."""
    steps = []
    original = numerics.numerov_zero_energy

    def counted(potential, grid, u0, u1):
        steps.append(np.size(grid) - 2)
        return original(potential, grid, u0, u1)

    numerics.numerov_zero_energy = counted
    try:
        yield steps
    finally:
        numerics.numerov_zero_energy = original


def measure(start, step, rounds):
    """(results by name, Numerov steps, median ms of the two checks)."""
    with march(start, step):
        with counted_steps() as steps:
            results = {r.name: r for r in (check() for check in CHECKS)}
        times = []
        for _ in range(rounds):
            t0 = perf_counter()
            for check in CHECKS:
                check()
            times.append((perf_counter() - t0) * 1e3)
    return results, sum(steps), float(np.median(times))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--starts", type=float, nargs="+", default=[1e-4, 3e-4, 1e-3, 3e-3])
    parser.add_argument(
        "--steps", type=float, nargs="+", default=[0.003, 0.0035, 0.004, 0.0045, 0.005]
    )
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args(argv)

    particular, family = BASELINE.values()
    print(f"residuals at most their rho-grid values: particular {particular:.4e}, "
          f"family {family:.4e}")
    print(f"{'rho0':>7} {'h':>7} {'particular':>11} {'family':>11} {'steps':>6} {'ms':>6}  ok")
    chosen = None
    for start in args.starts:
        for step in args.steps:
            results, steps, ms = measure(start, step, args.rounds)
            ok = all(results[n].residual <= v for n, v in BASELINE.items())
            if ok and (chosen is None or steps < chosen[0]):
                chosen = steps, start, step
            print(
                f"{start:>7g} {step:>7g} "
                + " ".join(f"{results[n].residual:>11.3e}" for n in BASELINE)
                + f" {steps:>6} {ms:>6.2f}  {'yes' if ok else 'no'}"
            )
    named = "none" if chosen is None else f"rho0 = {chosen[1]:g}, h = {chosen[2]:g}"
    print(f"cheapest pair meeting the rule: {named}")


if __name__ == "__main__":
    main()
