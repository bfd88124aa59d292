#!/usr/bin/env python3
"""Benchmark of the susy-fisheye library, driven through its public entry points.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One closed-loop client in one process calls `susy_fisheye.cli.main` with
`--output` to a file under perfbench/out (and `do_core.radial_wavefunction`
for the API requests), with BLAS/OpenMP threads pinned to 1.  Every
request's output is checked outside the timing.  `--trace 0` prints the
end-to-end metrics; `--trace 1` runs every request twice, untraced and with
span wrappers installed, and prints the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

import os
import time

T_PROCESS = time.perf_counter()
# Thread pools read these when numpy is first imported, so they are set first.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# verify tolerances must be the documented ones for the status gate to hold.
os.environ.pop("SUSY_FISHEYE_TOL", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gate  # noqa: E402
import hostspeed  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROCESSES = 5


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, golden files, ...)."""


def _load_program():
    try:
        from susy_fisheye import cli, do_core
    except ImportError as exc:
        raise BenchmarkError(f"cannot import susy_fisheye from {ROOT / 'src'}: {exc}") from exc
    return cli, do_core


def _golden_bytes():
    golden = {}
    for _argv, name in workloads.GOLDEN:
        path = ROOT / "tests" / "golden" / name
        if not path.is_file():
            raise BenchmarkError(f"golden file {path} is missing")
        golden[name] = path.read_bytes()
    return golden


class Client:
    """The single closed-loop client: one request at a time, output to one file."""

    def __init__(self):
        self.cli, self.do_core = _load_program()
        OUT.mkdir(exist_ok=True)
        self.out_path = OUT / "request.out"

    def call(self, req):
        """(latency s, exit code, output, error) for one request.

        Only the call into the library is timed; removing the previous
        output and reading the new one happen outside the timing.
        """
        out = self.out_path
        out.unlink(missing_ok=True)
        argv = [*req.argv, "--output", str(out)]
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            if req.argv:
                with contextlib.redirect_stderr(sink):
                    rc = self.cli.main(argv)
                data = None
            else:
                grid = np.linspace(0.01, req.rho_max, req.samples)
                params = self.do_core.DoParams(req.kappa, req.l, req.N)
                data = np.asarray(self.do_core.radial_wavefunction(grid, params))
                rc = 0
        except Exception as exc:  # a raising request is a failed request
            return time.perf_counter() - t0, None, b"", f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if data is None:
            data = out.read_bytes() if out.exists() else b""
        return latency, rc, data, None


def _digest(data):
    raw = data.tobytes() if hasattr(data, "tobytes") else data
    return hashlib.sha256(raw).hexdigest()


def setup(workload, seed):
    """Import the program, generate the inputs and warm up; returns (client, blocks)."""
    client = Client()
    blocks = workloads.generate(workload, seed)
    for req in workloads.warmup(workload):
        _latency, rc, _data, error = client.call(req)
        if error or rc not in (0, 1):
            raise BenchmarkError(f"warm-up request {' '.join(req.argv)} failed: {error or rc}")
    return client, blocks


def setup_seconds(workload, seed):
    """Set-up time of fresh processes, each timed from its own start."""
    samples = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def stream(blocks, seconds, handle):
    """Hand over whole blocks, cycling through them, until `seconds` have passed."""
    t0 = time.perf_counter()
    b = 0
    while True:
        for req in blocks[b % len(blocks)]:
            handle(req)
        b += 1
        if time.perf_counter() - t0 >= seconds:
            return


class Run:
    """Requests executed in one phase, with their gate results."""

    def __init__(self, client, golden):
        self.client = client
        self.golden = golden
        self.requests = []
        self.latencies = []
        self.digests = []
        self.errors = []  # (request index, reason)
        self.family = []  # (request index, probes) for the quadrature reference

    def execute(self, req):
        latency, rc, data, error = self.client.call(req)
        k = len(self.requests)
        if error is None:
            try:
                error = gate.check_output(req, rc, data, self.golden)
            except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is None and req.probe:
            self.family.append((k, gate.family_probes(req, data)))
        if error is not None:
            self.errors.append((k, error))
        self.requests.append(req)
        self.latencies.append(latency)
        self.digests.append(_digest(data))

    def check_family(self):
        """Compare the probed family rows with the independent quadrature."""
        for k, probes in self.family:
            err = gate.family_reference_error(self.requests[k], probes)
            if not err <= gate.FAMILY_RTOL:
                self.errors.append((k, f"family f/f_bos relative error {err:.3e}"))


def edge_probe(client, workload):
    results = []
    for req in workloads.edge_requests(workload):
        _latency, rc, data, error = client.call(req)
        if error is None:
            error = gate.check_edge(rc, data)
        results.append({"argv": " ".join(req.argv), "exit": rc, "failed": error is not None,
                        "reason": error})
    return results


def _git(*args):
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_context(workload, seed, seconds, trace):
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "mix": workloads.describe(workload),
        "client": "one closed-loop client, one process",
    }


def _errors(run, limit=5):
    return [{"request": " ".join(run.requests[k].argv) or run.requests[k].kind, "reason": why}
            for k, why in run.errors[:limit]]


def untraced_run(workload, seed, seconds):
    setup_samples = setup_seconds(workload, seed)
    client, blocks = setup(workload, seed)
    run = Run(client, _golden_bytes())
    probes = hostspeed.Probes()
    peak_rss_mb = None

    def probed(req):
        nonlocal peak_rss_mb
        probes.take()
        run.execute(req)
        if len(run.requests) == len(blocks[0]):
            # Later blocks repeat the first one, and how many fit in the run
            # depends on the host, so the peak is taken over the first block.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stream(blocks, seconds, probed)
    probes.take()
    run.check_family()
    edge = edge_probe(client, workload)
    failed = len({k for k, _ in run.errors})
    values = metrics.end_to_end(
        workload, run.latencies, probes.reference_latencies(run.latencies), probes.seconds,
        [r.samples for r in run.requests], failed, setup_samples, edge, peak_rss_mb,
    )
    report = {
        "values": values,
        "units": {name: metrics.END_TO_END_UNITS[name] for name in values},
        "requests": len(run.requests),
        "failed": failed,
        "errors": _errors(run),
        "setup_samples_s": setup_samples,
        "latencies_ms": [round(1e3 * x, 4) for x in run.latencies],
        "edge": {"attempted": len(edge), "failed": sum(r["failed"] for r in edge),
                 "refused": sum(r["exit"] == 2 for r in edge),
                 "failures": [r for r in edge if r["failed"]]},
    }
    return report, len(run.requests), failed


def traced_run(workload, seed, seconds):
    client, blocks = setup(workload, seed)
    golden = _golden_bytes()
    plain = Run(client, golden)
    traced = Run(client, golden)
    originals = spans.public_functions()
    tracer = spans.Tracer()

    def pair(req):
        # Each request runs untraced and traced back to back, in alternating
        # order, so the overhead is a paired difference on warm state.
        k = len(plain.requests)
        tracer.request_id = k
        for with_spans in ((False, True) if k % 2 == 0 else (True, False)):
            if with_spans:
                with tracer:
                    traced.execute(req)
            else:
                plain.execute(req)

    stream(blocks, seconds, pair)
    hygiene = []
    restored = spans.public_functions()
    if any(restored[q] is not fn for q, fn in originals.items()):
        hygiene.append("wrappers not removed from their defining modules")
    hygiene += [f"wrapper left at {where}" for where in spans.leftover_wrappers()]
    mismatched = [k for k, (a, b) in enumerate(zip(plain.digests, traced.digests)) if a != b]
    if mismatched:
        hygiene.append(f"{len(mismatched)} traced outputs differ from the untraced ones")
    plain.check_family()
    traced.check_family()

    arrays = tracer.arrays()
    values = metrics.per_layer(arrays, tracer.names, plain.requests, plain.latencies,
                               traced.latencies)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload}.npz")
    failed = len({k for k, _ in plain.errors}) + len({k for k, _ in traced.errors})
    report = {
        "values": values,
        "units": {name: metrics.PER_LAYER_UNITS[name] for name in values},
        "requests": len(plain.requests),
        "failed": failed,
        "errors": _errors(plain) + _errors(traced),
        "hygiene": hygiene,
        "spans": int(arrays["name"].size),
        "untraced_op_ms_p50": 1e3 * statistics.median(plain.latencies),
        "traced_op_ms_p50": 1e3 * statistics.median(traced.latencies),
    }
    if workload == "verify-all":
        checks = sum(v for name, v in values.items() if name.startswith("verify.check_"))
        overhead = report["traced_op_ms_p50"] - report["untraced_op_ms_p50"]
        report["verify_checks_ms_sum"] = checks
        report["verify_checks_within_overhead"] = (
            abs(checks - report["untraced_op_ms_p50"]) <= abs(overhead))
    return report, 2 * len(plain.requests), failed + len(hygiene)


def _print_table(rows):
    width = max(len(name) for name, _v, _u in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def run_workload(args):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    context = run_context(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        report, attempted, failed = traced_run(args.workload, args.seed, args.seconds)
        declared = bench["per_layer"]
    else:
        report, attempted, failed = untraced_run(args.workload, args.seed, args.seconds)
        declared = bench["end_to_end"]
    report["context"] = context
    OUT.mkdir(exist_ok=True)
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, {report['requests']} requests, "
          f"{'traced' if args.trace else 'untraced'}; full report in "
          f"{result_file.relative_to(ROOT)}")
    _print_table([(n, v, report["units"][n]) for n, v in report["values"].items()])
    for key in ("errors", "hygiene"):
        for item in report.get(key) or ():
            print(f"  {key}: {item}")
    metrics = {}
    for entry in declared:
        name = entry["name"]
        metrics[name] = {"value": report["values"][name], "unit": entry["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in turn, in its own process; one table of every metric."""
    reports = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"{workload} failed: {proc.stderr.strip()[-500:]}")
        result = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        reports[workload] = json.loads(result.read_text(encoding="utf-8"))
    names = []
    for report in reports.values():
        names += [n for n in report["values"] if n not in names]
    width = max(len(name) for name in names) + 2
    print(f"{'metric':<{width}}{'unit':>10}" + "".join(f"{w:>18}" for w in reports))
    for name in names:
        unit = next(r["units"][name] for r in reports.values() if name in r["units"])
        cells = "".join(
            f"{r['values'][name]:>18.6g}" if name in r["values"] else f"{'-':>18}"
            for r in reports.values()
        )
        print(f"{name:<{width}}{unit:>10}{cells}")
    failed = sum(r["failed"] for r in reports.values())
    attempted = sum(r["requests"] for r in reports.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "workloads": {w: r["values"] for w, r in reports.items()}}))
    return 0


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="closed-form, quadrature-kappa, verify-all, or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0, help="timed duration of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            setup(args.workload, args.seed)
            print(json.dumps({"setup_s": time.perf_counter() - T_PROCESS}))
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
