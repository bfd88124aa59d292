#!/usr/bin/env python3
"""Time verify in two checkouts against each other, interleaved in one process.

Both checkouts' src/susy_fisheye are imported into one process, under the
package names susy_fisheye_parent and susy_fisheye_change (two_trees.py).
After one untimed warm-up round, every round runs verify.run_suite("all")
once per side and then each check of verify.SUITES once per side; the side
that goes first alternates from round to round.  The (name, passed, detail) of every
result must be the same on both sides, and no residual may be larger on the
change's side, or the script stops with status 1 before it prints a time.
It then prints each residual that changed, and, for the suite and for each
check, the median and quartiles in ms per side and the number of rounds in
which the change was faster.  Run as a script, it pins BLAS and OpenMP
threads to 1 unless the environment already sets them.

Usage:
    python scripts/verify_ab.py --parent DIR --change DIR --rounds 60
    python scripts/verify_ab.py --parent DIR --change DIR --rounds 60 --json ab.json
"""

import os

if __name__ == "__main__":
    # before numpy is imported, or the pins have no effect
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from two_trees import SIDES, load  # noqa: E402


class ResultsDiffer(Exception):
    """A verify result of the change differs from the parent's other than by a smaller residual."""


def _results(out):
    return [out] if hasattr(out, "residual") else out


def _changed_residuals(unit, parent, change):
    """{name: (parent residual, change residual)} of the results whose residual fell.

    Raises ResultsDiffer when a name, a pass/fail or a detail differs, or
    when a residual is larger (or NaN) on the change's side.
    """
    keys = [[(r.name, r.passed, r.detail) for r in side] for side in (parent, change)]
    moved = [(p, c) for p, c in zip(parent, change) if repr(p.residual) != repr(c.residual)]
    if keys[0] != keys[1] or any(not c.residual <= p.residual for p, c in moved):
        raise ResultsDiffer(f"{unit}: results differ\n parent {parent}\n change {change}")
    return {p.name: (p.residual, c.residual) for p, c in moved}


def _timed(fn):
    t0 = perf_counter()
    out = fn()
    return (perf_counter() - t0) * 1e3, _results(out)


def _summary(times):
    """Median, quartiles and wins of the change, in ms, over the rounds."""
    parent, change = (np.array(times[side]) for side in SIDES)
    row = {
        side: {
            "median": float(np.median(t)),
            "q1": float(np.percentile(t, 25)),
            "q3": float(np.percentile(t, 75)),
        }
        for side, t in zip(SIDES, (parent, change))
    }
    row["change_faster_rounds"] = int(np.sum(change < parent))
    return row


def compare(verifies, rounds):
    """{'suite': summary, 'checks': {name: summary}, 'residuals': changed} over `rounds` rounds.

    changed maps each result name whose residual fell to its
    [parent, change] residuals.  Raises ResultsDiffer as _changed_residuals
    does.
    """
    checks = [fn.__name__ for suite in verifies["change"].SUITES.values() for fn in suite]
    units = {"suite": {side: (lambda v=v: v.run_suite("all")) for side, v in verifies.items()}}
    for name in checks:
        units[name] = {side: getattr(v, name) for side, v in verifies.items()}
    times = {unit: {side: [] for side in SIDES} for unit in units}
    changed = {}
    for n in range(rounds + 1):
        order = SIDES if n % 2 == 0 else SIDES[::-1]
        for unit, fns in units.items():
            got = {}
            for side in order:
                ms, got[side] = _timed(fns[side])
                if n > 0:
                    times[unit][side].append(ms)
            changed.update(_changed_residuals(unit, got["parent"], got["change"]))
    return {
        "suite": _summary(times["suite"]),
        "checks": {name: _summary(times[name]) for name in checks},
        "residuals": {name: list(pair) for name, pair in changed.items()},
    }


def _report(table, rounds):
    """Print the residuals that fell, then the timing table."""
    print(f"names, pass/fail and details the same on both sides; "
          f"{len(table['residuals'])} residuals fell")
    for name, (parent, change) in table["residuals"].items():
        print(f"  {name}: {parent!r} -> {change!r}")
    print(f"{'':34s} {'parent ms (q1-q3)':>24s} {'change ms (q1-q3)':>24s}  wins")
    rows = [("suite", table["suite"])] + list(table["checks"].items())
    for name, row in rows:
        cells = [
            f"{row[s]['median']:8.3f} ({row[s]['q1']:.3f}-{row[s]['q3']:.3f})" for s in SIDES
        ]
        print(f"{name:34s} {cells[0]:>24s} {cells[1]:>24s}  "
              f"{row['change_faster_rounds']}/{rounds}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout holding src/susy_fisheye")
    parser.add_argument("--change", required=True, help="checkout holding src/susy_fisheye")
    parser.add_argument("--rounds", type=int, default=60, help="timed rounds (default 60)")
    parser.add_argument("--json", help="also write the table to this file")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    verifies = {side: load(getattr(args, side), side, "verify") for side in SIDES}
    try:
        table = compare(verifies, args.rounds)
    except ResultsDiffer as exc:
        print(exc, file=sys.stderr)
        return 1
    _report(table, args.rounds)
    if args.json:
        Path(args.json).write_text(json.dumps({"rounds": args.rounds, **table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
