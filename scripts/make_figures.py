#!/usr/bin/env python3
"""Regenerate the four index-family figures (l, lam) in {1,2} x {1,10}.

Writes one CSV and one SVG per combination through the `figure` command
plus a short console summary (peak ratio on the full grid and inside the
lens, inflection point on the default grid, whatever --samples and
--rho-max are).

Usage:
    python scripts/make_figures.py --outdir figures/
"""

import argparse
from pathlib import Path

import numpy as np

from susy_fisheye import cli, verify
from susy_fisheye.fisheye import figure_table, find_inflection


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="figures", help="output directory")
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--rho-max", type=float, default=3.0)
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = np.linspace(0.01, args.rho_max, args.samples)
    lens = grid[grid <= 1.0]

    for l in (1, 2):
        for lam in (1.0, 10.0):
            stem = f"figure_l{l}_lambda{lam:g}"
            for fmt in ("csv", "svg"):
                argv = ["figure", "--l", str(l), "--lambda", repr(lam),
                        "--rho-max", repr(args.rho_max), "--samples", str(args.samples),
                        "--format", fmt, "--output", str(outdir / f"{stem}.{fmt}")]
                if cli.main(argv) != 0:
                    raise SystemExit(f"figure failed for l={l}, lambda={lam:g}")

            ratio = figure_table(l, lam, grid)[3]
            peak = float(np.max(np.abs(ratio)))
            lens_peak = float(np.max(np.abs(ratio[: lens.size])))
            # on verify's lens grid, which holds the 100 points inside (0, 1]
            # that find_inflection needs, and is the figures' default grid
            star = find_inflection(l, lam, verify.LENS_GRID)
            print(
                f"l={l} lam={lam:4g}: peak |ratio| {peak:.4f} "
                f"(lens only {lens_peak:.4f}), inflection at rho = {star:.4f}, "
                f"wrote {stem}.csv/.svg"
            )


if __name__ == "__main__":
    main()
