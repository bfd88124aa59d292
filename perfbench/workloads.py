"""Seeded request streams for the three benchmark workloads.

Every workload is a list of blocks.  A block has the exact request mix of
its workload, so a run that stops on a block boundary sees the same mix
whatever the seed, and only the parameters inside the stated domain vary.
The program receives nothing but the generated argv (or, for the API
request, the generated arrays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("closed-form", "quadrature-kappa", "verify-all")

# Blocks generated during set-up; a run longer than this cycles through them.
BLOCKS_GENERATED = {"closed-form": 6, "quadrature-kappa": 6, "verify-all": 12}

# Edge-domain requests use their own fixed seed, so the probe is identical
# in every run and on every workload seed.  The closed-form block layout
# has one too (see closed_form_layout).
EDGE_SEED = 1996
LAYOUT_SEED = 9601019

SAMPLES_SMALL, SAMPLES_MID, SAMPLES_LARGE = 300, 3000, 100_000

# closed-form: kind -> requests per block of 300.  figure csv:json:svg is
# 2:1:1 and six of the csv requests are the golden configurations.
CLOSED_FORM_MIX = {
    "figure-csv": 54,
    "figure-golden": 6,
    "figure-json": 30,
    "figure-svg": 30,
    "index": 45,
    "potential": 45,
    "family": 60,
    "langer": 15,
    "radial_wavefunction": 15,
}
# Requests per block with 3000 samples (17 %) and with 100 000 samples (3 %).
# The 100 000-sample requests dominate a block's time and its peak memory,
# so every block gives them to the same kinds: each kind once, figure csv
# twice.
CLOSED_FORM_MID = 51
CLOSED_FORM_LARGE_KINDS = ("figure-csv", "figure-csv", "figure-json", "figure-svg", "index",
                           "potential", "family", "langer", "radial_wavefunction")
GOLDEN = (
    (("figure", "--l", "1", "--lambda", "1"), "figure_l1_lambda1.csv"),
    (("figure", "--l", "2", "--lambda", "10"), "figure_l2_lambda10.csv"),
)

# quadrature-kappa: nodeless (l, kappa) pairs with a general kappa; None
# marks l = 0, whose kappa is drawn from KAPPA_L0.
QUADRATURE_PAIRS = (
    (0, None),
    (1, 1 / 3),
    (1, 1 / 4),
    (2, 2 / 3),
    (2, 0.4),
    (2, 2.0),
    (3, 0.75),
    (3, 1.5),
)
KAPPA_L0 = (0.3, 3.0)
QUADRATURE_RHO_MAX = (3.0, 1000.0)
# For l = 0 the adaptive quadrature raises ConvergenceError for kappa near
# 1.8 once rho passes about 780 (its tolerance is absolute and I0 ~ rho).
# The timed stream stops at 500; the edge probe keeps the failing region.
QUADRATURE_RHO_MAX_L0 = 500.0
QUADRATURE_SAMPLES = (50, 400)

LAMBDA_RANGE = (0.1, 100.0)
RHO_MAX_RANGE = (1.0, 20.0)
# The first-order figure index n_M (1 + ratio) turns non-positive at large
# rho for l <= 1 (the ratio grows like rho^(3 - 2l)) and figure refuses it
# with exit 2.  Figure requests at l <= 1 stay inside the lens-scale range
# where it is positive: rho_max <= 3, and lambda >= 5 when l = 0.
FIGURE_RHO_MAX_LOW_L = (1.0, 3.0)
FIGURE_LAMBDA_L0 = (5.0, 100.0)
FAMILY_PROBES = 5


@dataclass(frozen=True)
class Request:
    """One generated request and what its correctness gate needs to know."""

    kind: str
    argv: tuple = ()  # CLI argv without --output; empty for the API call
    fmt: str = "csv"
    samples: int = 0  # radius samples the request emits
    l: int = 0
    kappa: float = 1.0
    lam: float = 1.0
    N: int = 0
    rho_max: float = 3.0
    golden: str = ""  # golden CSV the output must equal byte for byte
    probe: tuple = ()  # family rows compared with the quadrature reference

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else self.kind


def _num(x) -> str:
    return repr(float(x))


def _loguniform(rng, lo, hi) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _grid_argv(command, rho_max, samples, *extra):
    return (command, *extra, "--rho-max", _num(rho_max), "--samples", str(samples))


def _probe_rows(rng, samples):
    n = min(FAMILY_PROBES, samples)
    return tuple(sorted(int(i) for i in rng.choice(samples, n, replace=False)))


def _closed_form_request(rng, kind, samples, variant=None) -> Request:
    """One closed-form request; `variant` is langer's format or the API degree."""
    l = int(rng.integers(0, 4))
    lam = _loguniform(rng, *LAMBDA_RANGE)
    rho_max = float(rng.uniform(*RHO_MAX_RANGE))
    kappa = float(rng.choice((0.5, 1.0)))
    if kind.startswith("figure-"):
        fmt = kind.split("-", 1)[1]
        if l == 0:
            lam = _loguniform(rng, *FIGURE_LAMBDA_L0)
        if l <= 1:
            rho_max = float(rng.uniform(*FIGURE_RHO_MAX_LOW_L))
        argv = _grid_argv("figure", rho_max, samples, "--l", str(l), "--lambda", _num(lam))
        return Request(kind, argv + ("--format", fmt), fmt, samples, l, 1.0, lam, 0, rho_max)
    if kind == "index":
        exact = l >= 2 and rng.random() < 0.5
        argv = _grid_argv("index", rho_max, samples, "--l", str(l), "--lambda", _num(lam))
        return Request(kind, argv + (("--exact-index",) if exact else ()), "csv", samples,
                       l, 1.0, lam, 0, rho_max)
    if kind == "potential":
        n_total = 0
        if rng.random() < 0.5:
            n_total = int(round(1 + l / kappa)) + int(rng.integers(0, 5))
        extra = ("--kappa", _num(kappa), "--l", str(l)) + (("--N", str(n_total)) if n_total else ())
        return Request(kind, _grid_argv("potential", rho_max, samples, *extra), "csv", samples,
                       l, kappa, 1.0, n_total, rho_max)
    if kind == "family":
        extra = ("--kappa", _num(kappa), "--l", str(l), "--lambda", _num(lam))
        return Request(kind, _grid_argv("family", rho_max, samples, *extra), "csv", samples,
                       l, kappa, lam, 0, rho_max, probe=_probe_rows(rng, samples))
    if kind == "langer":
        fmt = variant or "json"
        if rng.random() < 0.5:
            well = ("--nb", str(int(rng.integers(1, 5))))
        else:
            well = ("--aufbau", str(int(rng.choice((1, 3, 5)))))
        argv = ("langer", *well, "--lambda0", _num(lam), "--samples", str(samples),
                "--format", fmt)
        return Request(kind, argv, fmt, samples if fmt == "csv" else 0, lam=lam)
    if kind == "radial_wavefunction":
        n_total = int(round(1 + l / kappa)) + (variant or 1)
        return Request(kind, (), "array", samples, l, kappa, 1.0, n_total, rho_max)
    raise ValueError(f"unknown closed-form kind {kind!r}")


def closed_form_layout():
    """(kind, samples, variant) of each position of a closed-form block.

    The layout is the same in every block and for every seed: it fixes the
    order, which requests are large, langer's format (alternating json and
    csv, csv when large) and the API degree (cycling 1 to 4), because these
    set a request's cost.  The seed draws only the numeric parameters.
    """
    rng = np.random.default_rng(LAYOUT_SEED)
    kinds = [k for k, n in CLOSED_FORM_MIX.items() for _ in range(n)]
    sizes = [SAMPLES_SMALL] * len(kinds)
    free = [i for i, k in enumerate(kinds) if k != "figure-golden"]
    for kind in CLOSED_FORM_LARGE_KINDS:
        slot = next(i for i in free if kinds[i] == kind)
        sizes[slot] = SAMPLES_LARGE
        free.remove(slot)
    for slot in rng.choice(free, CLOSED_FORM_MID, replace=False):
        sizes[int(slot)] = SAMPLES_MID
    seen = {}
    layout = []
    for kind, samples in zip(kinds, sizes):
        n = seen[kind] = seen.get(kind, -1) + 1
        variant = None
        if kind == "langer":
            variant = "csv" if samples == SAMPLES_LARGE or n % 2 else "json"
        elif kind == "radial_wavefunction":
            variant = 1 + n % 4
        elif kind == "figure-golden":
            variant = GOLDEN[n % len(GOLDEN)]
        layout.append((kind, samples, variant))
    return [layout[i] for i in rng.permutation(len(layout))]


def _closed_form_blocks(rng, n_blocks):
    layout = closed_form_layout()
    blocks = []
    for _ in range(n_blocks):
        block = []
        for kind, samples, variant in layout:
            if kind == "figure-golden":
                argv, name = variant
                block.append(Request(kind, argv, "csv", SAMPLES_SMALL, golden=name))
            else:
                block.append(_closed_form_request(rng, kind, samples, variant))
        blocks.append(block)
    return blocks


def _family_request(rng, l, kappa, rho_max, samples, kind="family") -> Request:
    lam = _loguniform(rng, *LAMBDA_RANGE)
    argv = _grid_argv("family", rho_max, samples, "--kappa", _num(kappa), "--l", str(l),
                      "--lambda", _num(lam))
    return Request(kind, argv, "csv", samples, l, kappa, lam, 0, rho_max,
                   probe=_probe_rows(rng, samples))


def _quadrature_blocks(rng, n_blocks):
    n = len(QUADRATURE_PAIRS)
    order = np.random.default_rng(LAYOUT_SEED).permutation(n)
    blocks = []
    for _ in range(n_blocks):
        # A block is an 8 x 8 Latin square: in each row of 8 requests every
        # pair meets a different eighth of the log rho_max range and of the
        # samples range, and over the block every pair meets every eighth.
        # The mix is fixed; the seed draws the point inside each eighth, the
        # l = 0 kappa, lambda and the probe rows.
        block = []
        for row in range(n):
            for i in order:
                l, kappa = QUADRATURE_PAIRS[i]
                if kappa is None:
                    kappa = float(rng.uniform(*KAPPA_L0))
                lo, hi = QUADRATURE_RHO_MAX
                if l == 0:
                    hi = QUADRATURE_RHO_MAX_L0
                u = ((i + row) % n + rng.random()) / n
                rho_max = float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))
                s_lo, s_hi = QUADRATURE_SAMPLES
                samples = int(s_lo + ((i + 3 * row) % n + rng.random()) / n * (s_hi - s_lo))
                block.append(_family_request(rng, l, kappa, rho_max, samples))
        blocks.append(block)
    return blocks


VERIFY_REQUEST = Request("verify", ("verify", "--suite", "all"), "text")


def generate(workload: str, seed: int, n_blocks: int | None = None):
    """The timed request stream of one workload as a list of blocks."""
    if n_blocks is None:
        n_blocks = BLOCKS_GENERATED[workload]
    rng = np.random.default_rng(seed)
    if workload == "closed-form":
        return _closed_form_blocks(rng, n_blocks)
    if workload == "quadrature-kappa":
        return _quadrature_blocks(rng, n_blocks)
    if workload == "verify-all":
        return [[VERIFY_REQUEST] for _ in range(n_blocks)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def warmup(workload: str):
    """Untimed requests that load every code path a workload's stream uses."""
    if workload == "verify-all":
        return [Request("verify", ("verify", "--suite", "specfun"), "text")]
    if workload == "quadrature-kappa":
        return [Request("family", _grid_argv("family", 3.0, 50, "--kappa", "0.7", "--l", "0"),
                        "csv", 50, 0, 0.7, 1.0, 0, 3.0)]
    rng = np.random.default_rng(0)
    kinds = [(k, None) for k in CLOSED_FORM_MIX if k != "figure-golden"] + [("langer", "csv")]
    return [_closed_form_request(rng, kind, SAMPLES_SMALL, variant) for kind, variant in kinds]


def edge_requests(workload: str):
    """Fixed untimed requests outside the timed domain (empty for verify-all).

    A request here may be refused with exit code 2; it fails only when it
    exits 0 with a non-finite value, or with any other exit code.
    """
    rng = np.random.default_rng(EDGE_SEED)
    out = []
    if workload == "closed-form":
        for rho_max in (1e10, 1e100, 1e160, 1e300):
            for kind in ("potential", "figure-csv", "index", "family"):
                req = _closed_form_request(rng, kind, 50)
                argv = list(req.argv)
                argv[argv.index("--rho-max") + 1] = _num(rho_max)
                out.append(Request("edge-" + kind, tuple(argv), req.fmt, 50, req.l,
                                   req.kappa, req.lam, req.N, rho_max))
        for l in (0, 1):
            for _ in range(4):
                lam = _loguniform(rng, *LAMBDA_RANGE)
                rho_max = float(rng.uniform(*RHO_MAX_RANGE))
                argv = _grid_argv("index", rho_max, 50, "--l", str(l), "--lambda", _num(lam))
                out.append(Request("edge-index-exact", argv + ("--exact-index",), "csv", 50,
                                   l, 1.0, lam, 0, rho_max))
    elif workload == "quadrature-kappa":
        for l, kappa in QUADRATURE_PAIRS:
            if kappa is None:
                kappa = float(rng.uniform(*KAPPA_L0))
            rho_max = _loguniform(rng, 1e4, 1e8)
            out.append(_family_request(rng, l, kappa, rho_max, 4, kind="edge-family"))
        # the l = 0 region the timed stream leaves out (see QUADRATURE_RHO_MAX_L0)
        out.append(_family_request(rng, 0, 1.8, 1000.0, 4, kind="edge-family"))
    return out


def describe(workload: str) -> dict:
    """The workload mix, recorded in every result for comparison."""
    if workload == "closed-form":
        return {
            "block": sum(CLOSED_FORM_MIX.values()),
            "kinds": CLOSED_FORM_MIX,
            "samples": {str(SAMPLES_SMALL): sum(CLOSED_FORM_MIX.values()) - CLOSED_FORM_MID
                        - len(CLOSED_FORM_LARGE_KINDS),
                        str(SAMPLES_MID): CLOSED_FORM_MID,
                        str(SAMPLES_LARGE): list(CLOSED_FORM_LARGE_KINDS)},
            "l": [0, 3], "lambda": list(LAMBDA_RANGE), "rho_max": list(RHO_MAX_RANGE),
            "kappa": [0.5, 1.0],
        }
    if workload == "quadrature-kappa":
        return {
            "block": len(QUADRATURE_PAIRS) ** 2,
            "pairs": [[l, k] for l, k in QUADRATURE_PAIRS],
            "kappa_l0": list(KAPPA_L0), "rho_max": list(QUADRATURE_RHO_MAX),
            "rho_max_l0": [QUADRATURE_RHO_MAX[0], QUADRATURE_RHO_MAX_L0],
            "samples": list(QUADRATURE_SAMPLES), "lambda": list(LAMBDA_RANGE),
        }
    return {"block": 1, "argv": list(VERIFY_REQUEST.argv)}
