#!/usr/bin/env python3
"""Time the CSV, JSON and SVG polyline writers against CPython's own text.

For each size (in values) the script builds a figure table (5 columns, or
4 where 5 does not divide the size) on linspace(0.01, 3), checks that the
kernel writer of a format gives the bytes of CPython's per-value text, and
times the two in interleaved rounds.  CSV pairs one `%` over the whole
table (percent_csv) with cli._columns_csv; JSON pairs a float.__repr__
join (repr_json) with cli._columns_json.  SVG pairs one `%` polyline join
(percent_points) with the kernel's `%.2f` (svgplot._points), on one
panel's canvas coordinates: size // 2 points of n_M, x and y interleaved.
The CPython writers live in this script only; the program writes every
table by the _g17 kernel.  A row gives the median milliseconds of each
writer, their ratio (CPython writer over kernel, above 1 where the kernel
is faster) and nanoseconds per value.

Usage:
    python scripts/csv_writer_scan.py
    python scripts/csv_writer_scan.py --sizes 1000 4096 15000 --rounds 11
"""

import argparse
import json
import statistics
from time import perf_counter

import numpy as np

from susy_fisheye import _g17, cli, svgplot
from susy_fisheye.fisheye import figure_table

SIZES = (100, 250, 300, 600, 1000, 2000, 4096, 15000, 500000)
NAMES = ["rho", "n_maxwell", "n_iso", "ratio_minus_1", "f_bos_sq"]


def table(values):
    width = 5 if values % 5 == 0 else 4
    return np.column_stack(figure_table(1, 1.0, np.linspace(0.01, 3.0, values // width))[:width])


def canvas(values):
    """One panel's canvas coordinates, x and y interleaved: values // 2 points of n_M."""
    grid = np.linspace(0.01, 3.0, values // 2)
    n_m = figure_table(1, 1.0, grid)[1]
    inner_w = svgplot._PANEL_W - svgplot._MARGIN_L - svgplot._MARGIN_R
    inner_h = svgplot._PANEL_H - svgplot._MARGIN_T - svgplot._MARGIN_B
    sx = svgplot._MARGIN_L + inner_w * (grid - grid[0]) / (grid[-1] - grid[0])
    sy = svgplot._MARGIN_T + inner_h * (1.0 - (n_m - n_m.min()) / (n_m.max() - n_m.min()))
    return np.column_stack((sx, sy)).ravel()


def percent_csv(names, columns):
    """The CSV table of `columns` by one `%` over the whole table."""
    head = ",".join(names) + "\n"
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    values = tuple(np.column_stack(columns).ravel().tolist())
    return ((head + row * len(columns[0])) % values).encode()


def repr_json(names, columns):
    """The JSON document of cli._columns_json("figure", {}, ...) by a float.__repr__ join."""
    head = json.dumps({"command": "figure", "params": {}}, indent=2)
    data = ",\n".join(
        f"    {json.dumps(name)}: [\n      " + ",\n      ".join(map(float.__repr__, col.tolist()))
        + "\n    ]"
        for name, col in zip(names, columns)
    )
    return f'{head[:-2]},\n  "data": {{\n{data}\n  }}\n}}\n'.encode()


def percent_points(xy):
    """The polyline points of `xy` by one `%` over the whole list."""
    return " ".join(["%.2f,%.2f"] * (len(xy) // 2)) % tuple(xy.tolist())


def writers(fmt, values):
    """The CPython writer and the kernel of `fmt` ("csv", "json" or "svg"), on one table."""
    if fmt == "svg":
        xy = canvas(values)
        return (lambda: percent_points(xy)), (lambda: svgplot._points(xy))
    t = table(values)
    names = NAMES[: t.shape[1]]
    columns = [np.ascontiguousarray(c) for c in t.T]
    if fmt == "csv":
        return (lambda: percent_csv(names, columns)), (lambda: cli._columns_csv(names, columns))
    return (lambda: repr_json(names, columns)), (
        lambda: cli._columns_json("figure", {}, names, columns)
    )


def scan(fmt, values, rounds):
    """(median ms of the CPython writer, median ms of the kernel) on one table."""
    pair = writers(fmt, values)
    if pair[0]() != pair[1]():
        raise SystemExit(f"the {fmt} writers differ at {values} values")
    times = ([], [])
    for r in range(rounds):
        for side in (r % 2, 1 - r % 2):
            t0 = perf_counter()
            pair[side]()
            times[side].append(perf_counter() - t0)
    return tuple(statistics.median(x) * 1e3 for x in times)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sizes", type=int, nargs="+", default=SIZES, help="table sizes in values")
    p.add_argument("--rounds", type=int, default=21, help="interleaved rounds per size")
    args = p.parse_args(argv)
    _g17._tables()
    _g17._tables_2f()
    for fmt, writer in (("csv", "%"), ("json", "repr"), ("svg", "%")):
        print(f"{fmt:<4} {'values':>8} {writer + ' ms':>10} {'kernel ms':>10} {'ratio':>6} "
              f"{'ns/value':>15}")
        for values in sorted(args.sizes):
            slow, kernel = scan(fmt, values, args.rounds)
            ns = f"{slow / values * 1e6:.0f} / {kernel / values * 1e6:.0f}"
            print(f"{fmt:<4} {values:>8} {slow:>10.3f} {kernel:>10.3f} {slow / kernel:>6.2f} "
                  f"{ns:>15}")


if __name__ == "__main__":
    main()
