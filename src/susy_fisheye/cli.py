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
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fullline, verify
from .do_core import DoParams, _check_kappa, potential_v, u_minus, u_plus
from .fisheye import figure_table, index_columns
from .isospectral import family_columns
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
            raise ValueError(f"samples must be >= 2, got samples = {self.samples}")
        if not 0.0 < self.rho_min < self.rho_max:
            raise ValueError(
                f"need 0 < rho-min < rho-max, got rho-min = {self.rho_min:g}, "
                f"rho-max = {self.rho_max:g}"
            )
        if self.fmt not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")
        if self.fmt == "svg" and self.command != "figure":
            raise ValueError("svg output is only available for the figure command")
        _check_kappa(self.kappa)
        if self.l < 0:
            raise ValueError(f"l must be non-negative, got l = {self.l}")
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got lambda = {self.lam:g}")
        if self.lam == math.inf:
            raise ValueError(f"lambda must be finite, got lambda = {self.lam:g}")
        if not -1.0 < self.lambda0 < math.inf or self.lambda0 == 0.0:
            raise ValueError(f"lambda0 must lie in (-1, 0) or (0, inf), got {self.lambda0:g}")

    def grid(self):
        return np.linspace(self.rho_min, self.rho_max, self.samples)


def _emit(text: str, output: str):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _columns_csv(names, columns) -> str:
    """One header line, then one row per sample, every value as %.17g."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    values = tuple(np.column_stack(columns).ravel().tolist())
    return (",".join(names) + "\n" + row * len(columns[0])) % values


def _columns_json(command, params, names, columns) -> str:
    """json.dumps(indent=2) of {command, params, data}, data spliced in a column at a time.

    Each value is written as float.__repr__, which is what json's indenting
    encoder writes for a finite float.
    """
    head = json.dumps({"command": command, "params": params}, indent=2)
    data = ",\n".join(
        f"    {json.dumps(name)}: [\n      "
        + ",\n      ".join(map(float.__repr__, col.tolist()))
        + "\n    ]"
        for name, col in zip(names, columns)
    )
    return f'{head[:-2]},\n  "data": {{\n{data}\n  }}\n}}\n'


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
    if cfg.N:
        params = DoParams(cfg.kappa, cfg.l, cfg.N)
    else:
        params = DoParams.nodeless(cfg.kappa, cfg.l)
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
    n_m, n_i, ratio = index_columns(g, cfg.l, cfg.lam, exact=cfg.exact_index)[:3]
    _grid_output(
        cfg,
        {"l": cfg.l, "lambda": cfg.lam, "exact": cfg.exact_index},
        ["rho", "n_maxwell", "n_iso", "ratio_minus_1"],
        [g, n_m, n_i, ratio],
    )
    return 0


def _cmd_family(cfg: RunConfig) -> int:
    params = DoParams.nodeless(cfg.kappa, cfg.l, cfg.lam)
    g = cfg.grid()
    _grid_output(
        cfg,
        {"kappa": cfg.kappa, "l": cfg.l, "lambda": cfg.lam},
        ["rho", "u_minus", "u_bos", "f", "f_bos"],
        [g, *family_columns(g, params)],
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
        v_plus = fullline.rm_partner_potential(xs, nb)
        v_fam = fullline.rm_family_single(xs, cfg.lambda0)
        names = ["x", "v_minus", "v_plus", "v_family"]
        cols = [xs, v_min, v_plus, v_fam]
    _grid_output(cfg, meta, names, cols)
    return 0


def _cmd_figure(cfg: RunConfig) -> int:
    columns = figure_table(cfg.l, cfg.lam, cfg.grid())
    names = ["rho", "n_maxwell", "n_iso", "ratio_minus_1", "f_bos_sq"]
    if cfg.fmt != "svg":
        _grid_output(cfg, {"l": cfg.l, "lambda": cfg.lam}, names, columns)
        return 0
    _check_finite(names, columns)
    caption = f"index family: l={cfg.l}, lambda={cfg.lam:g}"
    grid, n_maxwell, n_iso, ratio, f_bos_sq = columns
    svg = svg_panels(
        [
            (grid, n_maxwell, "baseline index n_M"),
            (grid, n_iso, "family index n_iso"),
            (grid, ratio, "n_iso/n_M - 1"),
            (grid, f_bos_sq, "damped radial factor squared"),
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
    """Execute one validated configuration; returns the process exit code.

    numpy's floating-point warnings are silenced: a non-finite value is
    refused by _check_finite with one `error:` line instead.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _COMMANDS[cfg.command](cfg)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args leaves it unchanged."""
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
