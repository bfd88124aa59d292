"""Command-line front end.

Subcommands:
  potential  sample the focusing potential and both partner potentials
  index      sample the baseline and family refractive indices
  family     sample the isospectral family (potentials and radial factors)
  langer     full-line spectra, family wells and the radius rescaling
  figure     emit the four-column index-family table as CSV or a 2x2 SVG
  verify     run the residual verification suite

All outputs are deterministic: identical configurations produce
byte-identical files.  Errors are written to stderr with an `error:`
prefix; configuration problems exit with status 2, failed verification
with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fisheye, fullline, verify
from .do_core import DoParams, potential_v, u_minus, u_plus
from .fisheye import figure_table, figure_table_csv, index_iso, index_maxwell
from .isospectral import (
    IsoFamily,
    radial_factor_bosonic,
    u_bosonic_family,
)
from .do_core import radial_factor_f
from .svgplot import svg_panels

__all__ = ["RunConfig", "main", "run"]

_FORMATS = ("csv", "json", "svg")


@dataclass
class RunConfig:
    """Validated bundle of CLI options for one invocation."""

    command: str
    kappa: float = 1.0
    l: int = 1
    N: int = 0  # 0 means: derive the nodeless value
    lam: float = 1.0
    lambda0: float = 1.0
    nb: int = 0
    aufbau: int = 0
    rho_min: float = 0.01
    rho_max: float = 3.0
    samples: int = 300
    fmt: str = "csv"
    output: str = ""
    exact_index: bool = False
    suite: str = "all"

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("samples must be >= 2")
        if not 0.0 < self.rho_min < self.rho_max:
            raise ValueError("need 0 < rho-min < rho-max")
        if self.fmt not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")
        if self.fmt == "svg" and self.command != "figure":
            raise ValueError("svg output is only available for the figure command")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.l < 0:
            raise ValueError("l must be non-negative")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if not -1.0 < self.lambda0 < math.inf or self.lambda0 == 0.0:
            raise ValueError(f"lambda0 must lie in (-1, 0) or (0, inf), got {self.lambda0:g}")

    def grid(self):
        return np.linspace(self.rho_min, self.rho_max, self.samples)


def _fmt17(v) -> str:
    return f"{float(v):.17g}"


def _emit(text: str, output: str):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _columns_csv(names, columns) -> str:
    lines = [",".join(names)]
    for row in zip(*columns):
        lines.append(",".join(_fmt17(v) for v in row))
    return "\n".join(lines) + "\n"


def _columns_json(command, params, names, columns) -> str:
    payload = {
        "command": command,
        "params": params,
        "data": {name: [float(v) for v in col] for name, col in zip(names, columns)},
    }
    return json.dumps(payload, indent=2) + "\n"


def _check_finite(names, columns):
    """Refuse a non-finite value, naming its column and the first bad abscissa."""
    for name, col in zip(names, columns):
        bad = ~np.isfinite(col)
        if bad.any():
            at = columns[0][bad.argmax()]
            raise ValueError(f"{name} is not finite at {names[0]} = {at:.3g}")


def _grid_output(cfg: RunConfig, params, names, columns):
    _check_finite(names, columns)
    if cfg.fmt == "csv":
        _emit(_columns_csv(names, columns), cfg.output)
    else:
        _emit(_columns_json(cfg.command, params, names, columns), cfg.output)


def _cmd_potential(cfg: RunConfig) -> int:
    n_param = cfg.N if cfg.N else None
    if n_param is None:
        params = DoParams.nodeless(cfg.kappa, cfg.l, cfg.lam)
    else:
        params = DoParams(cfg.kappa, cfg.l, n_param, cfg.lam)
    g = cfg.grid()
    cols = [
        g,
        potential_v(g, cfg.kappa, params.w),
        u_minus(g, cfg.l, cfg.kappa),
        u_plus(g, cfg.l, cfg.kappa),
    ]
    _grid_output(
        cfg,
        {"kappa": cfg.kappa, "l": cfg.l, "N": params.N, "w": params.w},
        ["rho", "v", "u_minus", "u_plus"],
        cols,
    )
    return 0


def _cmd_index(cfg: RunConfig) -> int:
    g = cfg.grid()
    n_m = index_maxwell(g, cfg.l)
    n_i = index_iso(g, cfg.l, cfg.lam, exact=cfg.exact_index)
    ratio = fisheye.relative_ratio(g, cfg.l, cfg.lam)
    _grid_output(
        cfg,
        {"l": cfg.l, "lambda": cfg.lam, "exact": cfg.exact_index},
        ["rho", "n_maxwell", "n_iso", "ratio_minus_1"],
        [g, n_m, n_i, ratio],
    )
    return 0


def _cmd_family(cfg: RunConfig) -> int:
    fam = IsoFamily(DoParams.nodeless(cfg.kappa, cfg.l, cfg.lam))
    g = cfg.grid()
    cols = [
        g,
        u_minus(g, cfg.l, cfg.kappa),
        u_bosonic_family(g, fam),
        radial_factor_f(g, cfg.l, cfg.kappa),
        radial_factor_bosonic(g, fam),
    ]
    _grid_output(
        cfg,
        {"kappa": cfg.kappa, "l": cfg.l, "lambda": cfg.lam},
        ["rho", "u_minus", "u_bos", "f", "f_bos"],
        cols,
    )
    return 0


def _cmd_langer(cfg: RunConfig) -> int:
    if cfg.aufbau:
        spectrum = fullline.aufbau_spectrum(cfg.aufbau)
        meta = {"variant": "aufbau", "N": cfg.aufbau}
    else:
        nb = cfg.nb if cfg.nb else 1
        spectrum = fullline.rm_spectrum(nb)
        meta = {"variant": "fisheye", "nb": nb}
    if cfg.fmt == "json":
        payload = {
            "eigenvalues": [int(e) if float(e).is_integer() else float(e) for e in spectrum],
        }
        payload.update(meta)
        if not cfg.aufbau:
            payload["family"] = {
                "lambda0": cfg.lambda0,
                "well_center": -fullline.rm_family_shift(cfg.lambda0),
                "rescaled_radius": fullline.rescale_radius(1.0, cfg.lambda0)
                if cfg.lambda0 > 0
                else None,
            }
        _emit(json.dumps(payload, indent=2) + "\n", cfg.output)
        return 0
    # csv: scan of the well, its superpartner and the single-state family
    xs = np.linspace(-6.0, 6.0, cfg.samples)
    if cfg.aufbau:
        names = ["x", "v_minus"]
        cols = [xs, fullline.aufbau_rm_potential(xs, cfg.aufbau)]
    else:
        v_min = fullline.rm_potential(xs, nb)
        v_plus = -nb * (nb - 1) / np.cosh(xs) ** 2
        v_fam = fullline.rm_family_single(xs, cfg.lambda0)
        names = ["x", "v_minus", "v_plus", "v_family"]
        cols = [xs, v_min, v_plus, v_fam]
    _grid_output(cfg, meta, names, cols)
    return 0


def _cmd_figure(cfg: RunConfig) -> int:
    table = figure_table(cfg.l, cfg.lam, cfg.grid())
    names = ["rho", "n_maxwell", "n_iso", "ratio_minus_1", "f_bos_sq"]
    columns = [
        table.grid,
        table.n_maxwell,
        table.n_iso,
        table.ratio_minus_one,
        table.f_bos_squared,
    ]
    if cfg.fmt == "json":
        _grid_output(cfg, {"l": cfg.l, "lambda": cfg.lam}, names, columns)
        return 0
    _check_finite(names, columns)
    if cfg.fmt == "csv":
        _emit(figure_table_csv(table), cfg.output)
        return 0
    caption = f"index family: l={cfg.l}, lambda={cfg.lam:g}"
    svg = svg_panels(
        [
            (table.grid, table.n_maxwell, "baseline index n_M"),
            (table.grid, table.n_iso, "family index n_iso"),
            (table.grid, table.ratio_minus_one, "n_iso/n_M - 1"),
            (table.grid, table.f_bos_squared, "damped radial factor squared"),
        ],
        caption=caption,
    )
    _emit(svg, cfg.output)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    results = verify.run_suite(cfg.suite)
    lines = []
    n_fail = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        n_fail += 0 if r.passed else 1
        extra = f"  ({r.detail})" if r.detail and not r.passed else ""
        lines.append(
            f"{status} {r.name:<28} residual={r.residual:.3e} tol={r.tolerance:.3e}{extra}"
        )
    lines.append(f"verify: {len(results) - n_fail} passed, {n_fail} failed")
    _emit("\n".join(lines) + "\n", cfg.output)
    return 1 if n_fail else 0


_COMMANDS = {
    "potential": _cmd_potential,
    "index": _cmd_index,
    "family": _cmd_family,
    "langer": _cmd_langer,
    "figure": _cmd_figure,
    "verify": _cmd_verify,
}


def run(cfg: RunConfig) -> int:
    """Execute one validated configuration; returns the process exit code."""
    return _COMMANDS[cfg.command](cfg)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susy-fisheye",
        description=(
            "Isospectral families of the zero-energy focusing problem: "
            "half-line potentials, fish-eye index profiles and the "
            "full-line sech^2 picture."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_options(p, rho_max=3.0, samples=300):
        p.add_argument("--rho-min", type=float, default=0.01, help="grid start (default 0.01)")
        p.add_argument("--rho-max", type=float, default=rho_max, help=f"grid end (default {rho_max:g})")
        p.add_argument("--samples", type=int, default=samples, help=f"grid size (default {samples})")

    def add_output_options(p, formats=("csv", "json")):
        p.add_argument("--format", dest="fmt", choices=formats, default=formats[0],
                       help=f"output format (default {formats[0]})")
        p.add_argument("--output", default="", help="output path (default: stdout)")

    p = sub.add_parser("potential", help="sample V, U- and U+ on a radial grid")
    p.add_argument("--kappa", type=float, default=1.0, help="shape parameter (default 1)")
    p.add_argument("--l", type=int, default=1, help="orbital quantum number (default 1)")
    p.add_argument("--N", type=int, default=0, help="total quantum number (default: nodeless value)")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="family parameter (default 1)")
    add_grid_options(p)
    add_output_options(p)

    p = sub.add_parser("index", help="sample the baseline and family refractive indices")
    p.add_argument("--l", type=int, default=1, help="orbital quantum number (default 1)")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="family parameter (default 1)")
    p.add_argument("--exact-index", action="store_true",
                   help="use sqrt(-V) instead of the first-order ratio form")
    add_grid_options(p)
    add_output_options(p)

    p = sub.add_parser("family", help="sample the isospectral family members")
    p.add_argument("--kappa", type=float, default=1.0, help="shape parameter (default 1)")
    p.add_argument("--l", type=int, default=1, help="orbital quantum number (default 1)")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="family parameter (default 1)")
    add_grid_options(p)
    add_output_options(p)

    p = sub.add_parser("langer", help="full-line spectra, family wells and rescaling")
    p.add_argument("--nb", type=int, default=0, help="well index of -nb(nb+1)/cosh^2 x")
    p.add_argument("--aufbau", type=int, default=0, help="odd N for the half-width well variant")
    p.add_argument("--lambda0", type=float, default=1.0, help="full-line family parameter (default 1)")
    p.add_argument("--samples", type=int, default=300, help="scan size for csv output (default 300)")
    add_output_options(p, formats=("json", "csv"))

    p = sub.add_parser("figure", help="four-column index-family table (csv, json or svg)")
    p.add_argument("--l", type=int, default=1, help="orbital quantum number (default 1)")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="family parameter (default 1)")
    add_grid_options(p)
    add_output_options(p, formats=("csv", "json", "svg"))

    p = sub.add_parser("verify", help="run the residual verification suite")
    p.add_argument("--suite", default="all", choices=["all", *verify.SUITES],
                   help="which checks to run (default all)")
    p.add_argument("--output", default="", help="report path (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    fields = {
        k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__
    }
    try:
        cfg = RunConfig(**fields)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except (ValueError, OverflowError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
