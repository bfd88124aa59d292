#!/usr/bin/env python3
"""Time two checkouts on the benchmark's own request streams, interleaved in one process.

Both checkouts' src/susy_fisheye are imported side by side (two_trees.py).
For each workload, both sides run perfbench.workloads.warmup untimed; then
every request of workloads.generate(workload, SEED, rounds) runs on both
sides, the side that goes first alternating from request to request.  Each
call goes through perfbench/run.py's Run.execute: Client.call times only
the call, and gate.check_output checks each side's output.  Per workload it
prints the median change/parent ratio of the request times with its
quartiles, the requests the change won and the ratio of the summed times;
then, per request kind, each output that differs between the sides with
its first differing line.  It exits 1 when a request fails the gate or
raises on either side, otherwise 0.  BLAS and OpenMP threads are pinned
to 1, as perfbench/run.py pins them.

The ratios size a change before it is measured; a speed claim still rests
on pairs of perfbench/run.py processes.

Usage:
    python scripts/time_ab.py --parent DIR --change DIR --workload all
    python scripts/time_ab.py --parent DIR --change DIR --workload verify-all --rounds 40 \
        --json ab.json
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "perfbench")]
import run as bench  # noqa: E402  (first: it pins the threads before numpy loads)
from two_trees import SIDES, load  # noqa: E402
from workloads import WORKLOADS, generate, warmup  # noqa: E402

import numpy as np  # noqa: E402

SEED = 1  # the stream is fixed, as values_ab fixes its sweep


class Client(bench.Client):
    """perfbench's client on one side's cli and do_core, writing to out_dir."""

    def __init__(self, root, side, out_dir):
        self.cli, self.do_core = (load(root, side, m) for m in ("cli", "do_core"))
        self.out_path = Path(out_dir) / f"{side}.out"
        self.output = b""

    def call(self, req):
        latency, rc, self.output, error = super().call(req)
        return latency, rc, self.output, error


def _lines(data):
    if isinstance(data, bytes):
        return data.decode("ascii", "replace").splitlines()
    return [repr(x) for x in data.tolist()]


def _first_difference(parent, change):
    """'line n: parent -> change' of the first line that differs."""
    a, b = _lines(parent), _lines(change)
    n = next((i for i, pair in enumerate(zip(a, b)) if pair[0] != pair[1]), min(len(a), len(b)))
    a, b = (repr(side[n]) if n < len(side) else "<end>" for side in (a, b))
    return f"line {n + 1}: {a} -> {b}"


def _name(req):
    return " ".join(req.argv) or f"{req.kind} l={req.l} kappa={req.kappa} N={req.N}"


def compare(clients, workload, rounds=None):
    """The timing summary, gate failures and differing outputs of one workload."""
    for req in warmup(workload):
        for client in clients.values():
            client.call(req)
    runs = {side: bench.Run(clients[side], bench._golden_bytes()) for side in SIDES}
    differ = {}
    stream = [req for block in generate(workload, SEED, rounds) for req in block]
    for k, req in enumerate(stream):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            runs[side].execute(req)  # times the call, then gates its output
        if runs["parent"].digests[-1] != runs["change"].digests[-1]:
            line = _first_difference(clients["parent"].output, clients["change"].output)
            differ.setdefault(req.kind, []).append(f"{_name(req)}: {line}")
    parent, change = (np.array(runs[side].latencies) for side in SIDES)
    q1, median, q3 = np.percentile(change / parent, (25, 50, 75))
    return {"requests": len(stream), "median": median, "q1": q1, "q3": q3,
            "change_faster": int(np.sum(change < parent)),
            "sum_ratio": change.sum() / parent.sum(),
            "kinds": sorted({req.kind for req in stream}),
            "failures": [f"{side}: {_name(stream[k])}: {why}"
                         for side in SIDES for k, why in runs[side].errors],
            "differ": differ}


def _report(workload, row):
    print(f"{workload}: {row['requests']} requests, change/parent median {row['median']:.3f} "
          f"(IQR {row['q1']:.3f}-{row['q3']:.3f}), change faster in {row['change_faster']}, "
          f"summed {row['sum_ratio']:.3f}, {len(row['failures'])} gate failures")
    for failure in row["failures"]:
        print(f"  failed {failure}")
    for kind in row["kinds"]:
        print(f"  {kind}: {len(row['differ'].get(kind, ()))} outputs differ")
        for line in row["differ"].get(kind, ()):
            print(f"    {line}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout holding src/susy_fisheye")
    parser.add_argument("--change", required=True, help="checkout holding src/susy_fisheye")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--rounds", type=int, help="blocks of the stream (default: run.py's)")
    parser.add_argument("--json", help="also write the table to this file")
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be at least 1")
    table = {}
    with tempfile.TemporaryDirectory() as out:
        clients = {side: Client(getattr(args, side), side, out) for side in SIDES}
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            table[workload] = compare(clients, workload, args.rounds)
            _report(workload, table[workload])
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seed": SEED, "rounds": args.rounds, "workloads": table}, indent=1) + "\n")
    return 1 if any(row["failures"] for row in table.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
