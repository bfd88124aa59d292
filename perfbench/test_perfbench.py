"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import fnmatch
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from susy_fisheye import cli, verify  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = (1, 2, 3)


def _stream(workload, seed, n_blocks=2):
    return [req for block in workloads.generate(workload, seed, n_blocks) for req in block]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _stream(workload, 7) == _stream(workload, 7)


@pytest.mark.parametrize("workload", ("closed-form", "quadrature-kappa"))
def test_different_seeds_different_inputs(workload):
    assert _stream(workload, 7) != _stream(workload, 8)


def test_edge_requests_do_not_depend_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.edge_requests(workload) == workloads.edge_requests(workload)
    assert workloads.edge_requests("verify-all") == []


def _parse(argv):
    return cli._build_parser().parse_args([*argv, "--output", "out.csv"])


def test_closed_form_argv_parse_and_stay_in_domain():
    for seed in SEEDS:
        stream = _stream("closed-form", seed)
        block = stream[:300]
        kinds = [r.kind for r in block]
        assert {k: kinds.count(k) for k in set(kinds)} == workloads.CLOSED_FORM_MIX
        # a langer json request emits no samples, whatever its --samples
        large = sorted(r.kind for r in block if r.samples == workloads.SAMPLES_LARGE)
        expected = sorted(workloads.CLOSED_FORM_LARGE_KINDS)
        assert large in (expected, [k for k in expected if k != "langer"])
        mid = sum(r.samples == workloads.SAMPLES_MID for r in block)
        assert mid <= workloads.CLOSED_FORM_MID
        for req in stream:
            if not req.argv:
                assert req.kind == "radial_wavefunction"
                degree = req.N - 1 - req.l / req.kappa
                assert 1 <= degree <= 4 and req.kappa in (0.5, 1.0)
                continue
            args = _parse(req.argv)
            assert args.command == req.command
            if req.golden:
                continue
            if args.command != "langer":
                assert 0 <= args.l <= 3
                assert workloads.RHO_MAX_RANGE[0] <= args.rho_max <= workloads.RHO_MAX_RANGE[1]
                assert args.samples in (300, 3000, 100_000)
            if args.command in ("figure", "index", "family"):
                assert 0.1 <= args.lam <= 100.0
            if args.command in ("potential", "family"):
                assert args.kappa in (0.5, 1.0)
            if args.command == "figure" and args.l <= 1:
                assert args.rho_max <= workloads.FIGURE_RHO_MAX_LOW_L[1]
            if args.command == "index" and args.exact_index:
                assert args.l in (2, 3)
            if args.command == "langer":
                assert args.fmt in ("json", "csv")


def test_quadrature_argv_parse_and_stay_in_domain():
    pairs = {(l, k) for l, k in workloads.QUADRATURE_PAIRS if k is not None}
    for seed in SEEDS:
        for req in _stream("quadrature-kappa", seed):
            args = _parse(req.argv)
            assert args.command == "family"
            assert args.kappa not in (0.5, 1.0)
            if args.l == 0:
                assert workloads.KAPPA_L0[0] <= args.kappa <= workloads.KAPPA_L0[1]
                assert 3.0 <= args.rho_max <= workloads.QUADRATURE_RHO_MAX_L0
            else:
                assert (args.l, args.kappa) in pairs
                assert 3.0 <= args.rho_max <= 1000.0
            assert 50 <= args.samples <= 400
            assert len(req.probe) == workloads.FAMILY_PROBES
            assert all(0 <= i < args.samples for i in req.probe)


def test_verify_and_edge_argv_parse():
    for req in _stream("verify-all", 1, 2) + workloads.warmup("verify-all"):
        assert _parse(req.argv).command == "verify"
    for workload in ("closed-form", "quadrature-kappa"):
        for req in workloads.edge_requests(workload) + workloads.warmup(workload):
            if req.argv:
                _parse(req.argv)


def test_metric_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    computed = {**metrics.END_TO_END_UNITS, **metrics.PER_LAYER_UNITS}
    for name in list(declared) + list(computed):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {m["name"] for m in BENCH["per_layer"]} == set(metrics.PER_LAYER_UNITS)
    for name, unit in declared.items():
        assert computed[name] == unit, name
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_verify_checks_listed_once_each():
    program = sorted(n for n in vars(verify) if n.startswith("check_"))
    assert sorted(metrics.VERIFY_CHECKS) == program
    assert len(program) == 24


def _prediction_rows():
    text = (HERE / "README.md").read_text(encoding="utf-8")
    table = text.split("## Layer to end-to-end predictions", 1)[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    assert rows, "prediction table not found"
    return [[re.findall(r"`([^`]+)`", cell) for cell in row.strip("|").split("|")]
            for row in rows]


def test_prediction_table_names_existing_metrics_and_workloads():
    layer_names = list(metrics.PER_LAYER_UNITS)
    for layers, moves, workloads_on, bypass in _prediction_rows():
        for pattern in layers:
            assert fnmatch.filter(layer_names, pattern), pattern
        assert moves and all(m in metrics.END_TO_END_UNITS for m in moves), moves
        assert workloads_on and all(w in workloads.WORKLOADS for w in workloads_on)
        assert all(w in workloads.WORKLOADS for w in bypass)


def test_tracer_removes_wrappers_and_keeps_outputs(tmp_path):
    originals = spans.public_functions()
    argv = ["figure", "--l", "2", "--lambda", "10", "--samples", "50"]
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert cli.main(argv + ["--output", str(plain)]) == 0
    tracer = spans.Tracer()
    with tracer:
        assert cli.main(argv + ["--output", str(traced)]) == 0
    assert plain.read_bytes() == traced.read_bytes()
    assert spans.leftover_wrappers() == []
    assert all(spans.public_functions()[q] is fn for q, fn in originals.items())
    arrays = tracer.arrays()
    names = [tracer.names[i] for i in arrays["name"]]
    assert names[0] == "cli.main" and "fisheye.figure_table" in names
    # a parent's self time excludes exactly the time of its children
    root = arrays["parent"] == -1
    assert abs(arrays["self"].sum() - arrays["duration"][root].sum()) < 1e-9
    assert (arrays["self"] >= -1e-9).all()
