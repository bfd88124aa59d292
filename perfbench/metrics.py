"""End-to-end metrics of a timed run and per-layer metrics of a traced run."""

from __future__ import annotations

import statistics

import numpy as np

# name -> unit for every end-to-end metric a run can report.  A metric that
# does not apply to a workload (p90 below 100 requests, points on verify-all,
# the edge probe on verify-all) is left out of that workload's report.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "ops_per_ref_s": "1/ref_s",
    "op_ref_ms_p50": "ref_ms",
    "op_ms_p90": "ms",
    "points_per_s": "1/s",
    "error_rate": "ratio",
    "edge_error_rate": "ratio",
    "peak_rss_mb": "MB",
    "host_probe_ms": "ms",
}
P90_MIN_REQUESTS = 100

VERIFY_CHECKS = (
    "check_gegenbauer_recurrence", "check_gegenbauer_parity", "check_log_derivative",
    "check_partner_sum_difference", "check_coupling_integers", "check_zero_mode_particular",
    "check_closed_vs_quadrature", "check_riccati", "check_zero_mode_family",
    "check_lambda_recovery", "check_centrifugal_subtraction", "check_percent_bound",
    "check_ratio_damping", "check_inflection", "check_langer_residual", "check_rm_ladder",
    "check_rm_partner_deficit", "check_family_spectrum", "check_translation_law",
    "check_aufbau", "check_rescaling", "check_quadrature_examples", "check_numerov_order",
    "check_shooting_completeness",
)
DO_CORE = ("potential_v", "radial_factor_f", "radial_factor_df", "superpotential_w", "u_minus",
           "u_plus", "radial_wavefunction")
I0_ROUTES = ("isospectral.i0_closed_one", "isospectral.i0_closed_half",
             "isospectral.i0_quadrature")


def _per_layer_units():
    units = {
        "numerics.shooting_bound_states.calls": "count/op",
        "numerics.shooting_bound_states.ms_per_call": "ms",
        "numerics.shooting_bound_states.grid_points": "count",
        "numerics.derivative.calls": "count/op",
        "numerics.derivative.evals_per_call": "count",
        "numerics.derivative.us_per_call": "us",
        "numerics.integrate_adaptive.calls": "count/op",
        "numerics.integrate_adaptive.panels_per_call": "count",
        "numerics.integrate_adaptive.evals_per_call": "count",
        "numerics.integrate_adaptive.us_per_call": "us",
        "numerics.numerov_zero_energy.steps": "count/op",
        "numerics.numerov_zero_energy.ns_per_step": "ns",
        "isospectral.i0.calls_per_point": "count",
    }
    for fn in ("i0_closed_one", "i0_closed_half", "u_bosonic_family", "radial_factor_bosonic"):
        units[f"isospectral.{fn}.us_per_point"] = "us"
    for fn in DO_CORE:
        units[f"do_core.{fn}.calls"] = "count/op"
        units[f"do_core.{fn}.us_per_point"] = "us"
    units.update({
        "specfun.gegenbauer.calls": "count/op",
        "specfun.gegenbauer.calls_per_point": "count",
        "fisheye.figure_table.us_per_point": "us",
        "fisheye.relative_ratio.us_per_point": "us",
        "fisheye.index_iso.us_per_point": "us",
        "fisheye.figure_table_csv.us_per_row": "us",
        "cli.main.self_ms": "ms",
        "svgplot.svg_panels.ms": "ms",
        "fullline.self_ms": "ms",
    })
    for check in VERIFY_CHECKS:
        units[f"verify.{check}.ms"] = "ms"
    units.update({
        "trace.overhead_ms_per_op": "ms",
        "trace.overhead_pct": "%",
        "trace.spans_per_op": "count/op",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


def percentile(values, q):
    """q-th percentile (q in 1..99) by statistics.quantiles, exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(workload, latencies, ref_latencies, probe_seconds, samples, failures,
               setup_samples, edge, peak_rss_mb):
    """Report dict {name: value} of one untraced run.

    `ref_latencies` are the latencies rescaled by the host speed probes
    `probe_seconds` (see hostspeed.py); they give the ref_ metrics.
    """
    total = sum(latencies)
    n = len(latencies)
    out = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": n / total,
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "ops_per_ref_s": n / sum(ref_latencies),
        "op_ref_ms_p50": 1e3 * statistics.median(ref_latencies),
    }
    if n >= P90_MIN_REQUESTS:
        out["op_ms_p90"] = 1e3 * percentile(latencies, 90)
    if workload != "verify-all":
        out["points_per_s"] = sum(samples) / total
    out["error_rate"] = failures / n
    if edge:
        out["edge_error_rate"] = sum(1 for r in edge if r["failed"]) / len(edge)
    out["peak_rss_mb"] = peak_rss_mb
    out["host_probe_ms"] = 1e3 * statistics.median(probe_seconds)
    return out


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def per_layer(spans, names, requests, untraced, traced):
    """Per-layer metrics from the spans of a traced replay of `requests`.

    Times are self times: a span's duration minus the part its child spans
    cover.  verify.<check>.ms is the check's whole span (its own work plus
    the oracles it calls) per verify request, so the 24 values add up to a
    verify request's duration.
    """
    n_ops = len(requests)
    idx = {name: i for i, name in enumerate(names)}
    k = len(names)
    name = spans["name"]
    calls = np.bincount(name, minlength=k)
    self_s = np.bincount(name, weights=spans["self"], minlength=k)
    dur_s = np.bincount(name, weights=spans["duration"], minlength=k)
    count = np.bincount(name, weights=spans["count"], minlength=k)
    aux = np.bincount(name, weights=spans["aux"], minlength=k)

    def get(arr, q):
        return float(arr[idx[q]]) if q in idx else 0.0

    m = {}
    q = "numerics.shooting_bound_states"
    m[f"{q}.calls"] = get(calls, q) / n_ops
    m[f"{q}.ms_per_call"] = 1e3 * _ratio(get(self_s, q), get(calls, q))
    m[f"{q}.grid_points"] = _ratio(get(count, q), get(calls, q))
    q = "numerics.derivative"
    m[f"{q}.calls"] = get(calls, q) / n_ops
    m[f"{q}.evals_per_call"] = _ratio(get(count, q), get(calls, q))
    m[f"{q}.us_per_call"] = 1e6 * _ratio(get(self_s, q), get(calls, q))
    q = "numerics.integrate_adaptive"
    m[f"{q}.calls"] = get(calls, q) / n_ops
    m[f"{q}.panels_per_call"] = _ratio(get(aux, q), get(calls, q))
    m[f"{q}.evals_per_call"] = _ratio(get(count, q), get(calls, q))
    m[f"{q}.us_per_call"] = 1e6 * _ratio(get(self_s, q), get(calls, q))
    q = "numerics.numerov_zero_energy"
    m[f"{q}.steps"] = get(count, q) / n_ops
    m[f"{q}.ns_per_step"] = 1e9 * _ratio(get(self_s, q), get(count, q))

    # I0 points evaluated per radius point of the requests that needed I0
    i0_ids = [idx[r] for r in I0_ROUTES if r in idx]
    in_i0 = np.isin(name, i0_ids)
    i0_requests = np.unique(spans["request"][in_i0])
    points = sum(requests[r].samples for r in i0_requests if r >= 0)
    m["isospectral.i0.calls_per_point"] = _ratio(spans["count"][in_i0].sum(), points)
    for fn in ("i0_closed_one", "i0_closed_half", "u_bosonic_family", "radial_factor_bosonic"):
        q = f"isospectral.{fn}"
        m[f"{q}.us_per_point"] = 1e6 * _ratio(get(self_s, q), get(count, q))
    for fn in DO_CORE:
        q = f"do_core.{fn}"
        m[f"{q}.calls"] = get(calls, q) / n_ops
        m[f"{q}.us_per_point"] = 1e6 * _ratio(get(self_s, q), get(count, q))

    q = "specfun.gegenbauer"
    m[f"{q}.calls"] = get(calls, q) / n_ops
    if q in idx and "do_core.radial_wavefunction" in idx:
        parent = spans["parent"]
        own = name == idx[q]
        has_parent = own & (parent >= 0)
        under = np.count_nonzero(name[parent[has_parent]] == idx["do_core.radial_wavefunction"])
        m[f"{q}.calls_per_point"] = _ratio(under, get(count, "do_core.radial_wavefunction"))
    else:
        m[f"{q}.calls_per_point"] = 0.0

    for fn in ("figure_table", "relative_ratio", "index_iso"):
        q = f"fisheye.{fn}"
        m[f"{q}.us_per_point"] = 1e6 * _ratio(get(self_s, q), get(count, q))
    q = "fisheye.figure_table_csv"
    m[f"{q}.us_per_row"] = 1e6 * _ratio(get(self_s, q), get(count, q))
    m["cli.main.self_ms"] = 1e3 * _ratio(get(self_s, "cli.main"), get(calls, "cli.main"))
    m["svgplot.svg_panels.ms"] = 1e3 * _ratio(get(self_s, "svgplot.svg_panels"),
                                              get(calls, "svgplot.svg_panels"))
    fullline = sum(get(self_s, q) for q in idx if q.startswith("fullline."))
    m["fullline.self_ms"] = 1e3 * fullline / n_ops

    n_verify = sum(1 for r in requests if r.command == "verify")
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.ms"] = 1e3 * _ratio(get(dur_s, f"verify.{check}"), n_verify)

    m["trace.overhead_ms_per_op"] = 1e3 * (sum(traced) - sum(untraced)) / n_ops
    m["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(untraced) - 1.0)
    m["trace.spans_per_op"] = name.size / n_ops
    return m
