#!/usr/bin/env python3
"""Scan the start radius and step of verify's Langer zero-mode march.

verify marches the zero mode in x = ln rho from ln rho0 to ln 5 with a
step of at most h (verify.ZERO_MODE_START and verify.ZERO_MODE_STEP).  For
each pair (rho0, h) of STARTS and STEPS the script sets the two constants
and reports what the two zero-mode checks see: the residuals of
zero-mode-particular and zero-mode-family, the Numerov steps of the two
checks (read from a spy on numerics.numerov_zero_energy) and their median
in-process time over ROUNDS rounds.  The rule: neither residual may exceed
its value on the rho-grid of step 1e-3 that the Langer march replaced.
The last line names the pair with the fewest steps that meets it.  Run it
with BLAS threads pinned to 1, or the times follow the thread count.  It
takes no options.

Usage:
    OPENBLAS_NUM_THREADS=1 python scripts/zero_mode_step_scan.py
"""

import argparse
import statistics
import timeit
from unittest import mock

import numpy as np

from susy_fisheye import numerics, verify

STARTS = (1e-4, 3e-4, 1e-3, 3e-3)
STEPS = (0.003, 0.0035, 0.004, 0.0045, 0.005)
ROUNDS = 7
# the residuals of the rho-grid march (step 1e-3 from rho = 1e-3)
BASELINE = {
    "zero-mode-particular": 1.1537562724650563e-07,
    "zero-mode-family": 1.2673009187694182e-09,
}
CHECKS = (verify.check_zero_mode_particular, verify.check_zero_mode_family)


def run_checks():
    """The two checks' results by name."""
    return {r.name: r for r in (check() for check in CHECKS)}


def measure(start, step):
    """(results by name, Numerov steps, median ms of the two checks)."""
    with mock.patch.multiple(verify, ZERO_MODE_START=start, ZERO_MODE_STEP=step):
        with mock.patch.object(numerics, "numerov_zero_energy",
                               wraps=numerics.numerov_zero_energy) as march:
            results = run_checks()
        # numerov_zero_energy(potential, grid, u0, u1) takes grid.size - 2 steps
        steps = sum(np.size(call.args[1]) - 2 for call in march.call_args_list)
        times = timeit.repeat(run_checks, setup="gc.enable()", repeat=ROUNDS, number=1)
    return results, steps, statistics.median(times) * 1e3


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    particular, family = BASELINE.values()
    print(f"residuals at most their rho-grid values: particular {particular:.4e}, "
          f"family {family:.4e}")
    print(f"{'rho0':>7} {'h':>7} {'particular':>11} {'family':>11} {'steps':>6} {'ms':>6}  ok")
    chosen = None
    for start in STARTS:
        for step in STEPS:
            results, steps, ms = measure(start, step)
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
