#!/usr/bin/env python3
"""Time the two CSV writers of cli._columns_csv against the table size.

For each size (in values) the script builds a figure table (5 columns, or
4 where 5 does not divide the size) on linspace(0.01, 3), checks that the
one-`%` writer (cli._percent_csv) and the _g17 kernel (cli._kernel_csv)
give the same text, and times them in interleaved rounds.  A row gives the
median milliseconds of each writer, their ratio (% over kernel, above 1
where the kernel is faster) and nanoseconds per value.  The last line names
the smallest size scanned from which the kernel is faster at every larger
size: the crossover behind _g17.CHUNK, which _columns_csv uses as its
switch.

Usage:
    python scripts/csv_writer_scan.py
    python scripts/csv_writer_scan.py --sizes 1000 4096 15000 --rounds 11
"""

import argparse
import statistics
from time import perf_counter

import numpy as np

from susy_fisheye import _g17, cli
from susy_fisheye.fisheye import figure_table

SIZES = (250, 1000, 2000, 4096, 15000, 500000)
NAMES = ["rho", "n_maxwell", "n_iso", "ratio_minus_1", "f_bos_sq"]


def table(values):
    width = 5 if values % 5 == 0 else 4
    return np.column_stack(figure_table(1, 1.0, np.linspace(0.01, 3.0, values // width))[:width])


def scan(values, rounds):
    """(median ms of the % writer, median ms of the kernel) on one table."""
    t = table(values)
    head = ",".join(NAMES[: t.shape[1]]) + "\n"
    if cli._percent_csv(head, t) != cli._kernel_csv(head, t):
        raise SystemExit(f"the writers differ at {values} values")
    times = ([], [])
    for r in range(rounds):
        for side in (r % 2, 1 - r % 2):
            writer = (cli._percent_csv, cli._kernel_csv)[side]
            t0 = perf_counter()
            writer(head, t)
            times[side].append(perf_counter() - t0)
    return tuple(statistics.median(x) * 1e3 for x in times)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sizes", type=int, nargs="+", default=SIZES, help="table sizes in values")
    p.add_argument("--rounds", type=int, default=21, help="interleaved rounds per size")
    args = p.parse_args(argv)
    _g17._tables()
    print(f"{'values':>8} {'% ms':>10} {'kernel ms':>10} {'ratio':>6} {'ns/value':>15}")
    faster = []
    for values in sorted(args.sizes):
        percent, kernel = scan(values, args.rounds)
        faster.append((values, percent > kernel))
        ns = f"{percent / values * 1e6:.0f} / {kernel / values * 1e6:.0f}"
        print(f"{values:>8} {percent:>10.3f} {kernel:>10.3f} {percent / kernel:>6.2f} {ns:>15}")
    wins = [v for i, (v, _) in enumerate(faster) if all(f for _, f in faster[i:])]
    print(f"kernel faster at every size from {wins[0]} values" if wins
          else "kernel not faster at the largest size")


if __name__ == "__main__":
    main()
