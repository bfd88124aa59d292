#!/usr/bin/env python3
"""Scan the single-bound-state well family across its parameter range.

For each lambda0 of LAMBDA0 the script reports the analytic well center, the bound
state found by the sinc-DVR eigen-oracle (it must stay at -1), and the
rescaled lens radius of the half-line picture.  The scan makes the two
limiting behaviours visible: the well runs off to -infinity as
lambda0 -> 0+ and the rescaled radius tends to the original one as
lambda0 -> infinity.  It takes no options.

Usage:
    python scripts/well_translation_scan.py
"""

import argparse

from susy_fisheye.fullline import rescale_radius, rm_family_shift, rm_family_single
from susy_fisheye.numerics import dvr_bound_states

LAMBDA0 = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    print(f"{'lambda0':>10} {'well center':>12} {'bound state':>14} {'R_lam/R':>10}")
    for lam0 in LAMBDA0:
        center = -rm_family_shift(lam0)
        states = dvr_bound_states(lambda x: rm_family_single(x, lam0))
        assert len(states) == 1, "translation must preserve the single state"
        print(
            f"{lam0:>10g} {center:>12.5f} {states[0]:>14.9f} "
            f"{rescale_radius(1.0, lam0):>10.6f}"
        )


if __name__ == "__main__":
    main()
