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
prefix and warnings with a `warning:` prefix; configuration problems
exit with status 2, failed verification with status 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import warnings

import numpy as np

from . import _g17, fullline, verify
from .do_core import DoParams, _check_kappa, potential_v, u_minus, u_plus
from .fisheye import figure_table, index_columns
from .isospectral import family_columns
from .svgplot import svg_panels

__all__ = ["main"]


def _check_samples(samples):
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got samples = {samples}")


def _grid(args):
    """The radial grid of a grid command, once its options pass their checks.

    The checks run in a fixed order, which picks the message when several
    options are bad: samples, rho range, kappa, l, lambda.
    """
    _check_samples(args.samples)
    if not 0.0 < args.rho_min < args.rho_max:
        raise ValueError(
            f"need 0 < rho-min < rho-max, got rho-min = {args.rho_min:g}, "
            f"rho-max = {args.rho_max:g}"
        )
    if args.rho_max == math.inf:
        raise ValueError(f"rho-max must be finite, got rho-max = {args.rho_max:g}")
    if "kappa" in args:
        _check_kappa(args.kappa)
    if args.l < 0:
        raise ValueError(f"l must be non-negative, got l = {args.l}")
    if "lam" in args:
        if not args.lam > 0:
            raise ValueError(f"lambda must be positive, got lambda = {args.lam:g}")
        if args.lam == math.inf:
            raise ValueError(f"lambda must be finite, got lambda = {args.lam:g}")
    return np.linspace(args.rho_min, args.rho_max, args.samples)


def _emit(data, output: str):
    """Write `data`, bytes or text, to the file `output` (as UTF-8), or to stdout."""
    if not output:
        if isinstance(data, (bytes, bytearray)):
            data = data.decode()  # rebinding frees the bytes before stdout encodes the text
        sys.stdout.write(data)
        return
    if isinstance(data, str):
        data = data.encode()
    try:
        with open(output, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ValueError(f"cannot write --output {output}: {exc.strerror or exc}") from exc


def _columns_csv(names, columns) -> bytearray:
    """One header line, then one row per sample, every value as %.17g by the _g17 kernel.

    The table must be finite; _grid_output refuses any other before it
    writes.
    """
    table = np.column_stack(columns)
    seps = np.full(table.shape, ord(","), np.uint8)
    seps[:, -1] = ord("\n")
    out = bytearray((",".join(names) + "\n").encode())
    for text in _g17.chunks(table.ravel(), seps.ravel()):
        out += text
    return out


def _columns_json(command, params, names, columns) -> bytearray:
    """json.dumps(indent=2) of {command, params, data}, data written by one kernel pass.

    Each value is written as float.__repr__, which is what json's indenting
    encoder writes for a finite float.  As for CSV, the table must be
    finite.  The kernel writes all the columns in one pass, a value's
    separator being "\n" at the end of its column and "," elsewhere; in
    each chunk every "\n" becomes the text that closes its column and opens
    the next (or closes the document), and every "," json's list separator.
    """
    head = json.dumps({"command": command, "params": params}, indent=2)
    out = bytearray(f'{head[:-2]},\n  "data": {{\n'.encode())
    opens = [f"    {json.dumps(name)}: [\n      ".encode() for name in names]
    closes = iter([b"\n    ],\n" + text for text in opens[1:]] + [b"\n    ]\n  }\n}\n"])
    values = np.concatenate(columns)
    seps = np.full(len(values), ord(","), np.uint8)
    seps[np.cumsum(list(map(len, columns))) - 1] = ord("\n")
    comma = b",\n      "
    out += opens[0]
    for text in _g17.chunks(values, seps, shortest=True):
        *whole, last = text.split(b"\n")
        for piece in whole:
            out += piece.replace(b",", comma)
            out += next(closes)
        out += last.replace(b",", comma)
    return out


def _check_finite(names, columns):
    """Refuse a non-finite value, naming its column and the first bad abscissa."""
    for name, col in zip(names, columns):
        bad = ~np.isfinite(col)
        if bad.any():
            at = columns[0][bad.argmax()]
            raise ValueError(f"{name} is not finite at {names[0]} = {at:.3g}")


def _grid_output(args, params, names, columns):
    _check_finite(names, columns)
    if args.fmt == "csv":
        _emit(_columns_csv(names, columns), args.output)
    else:
        _emit(_columns_json(args.command, params, names, columns), args.output)


def _cmd_potential(args) -> int:
    g = _grid(args)
    if args.N is not None:
        params = DoParams(args.kappa, args.l, args.N)
    else:
        params = DoParams.nodeless(args.kappa, args.l)
    _grid_output(
        args,
        {"kappa": args.kappa, "l": args.l, "N": params.N, "w": params.w},
        ["rho", "v", "u_minus", "u_plus"],
        [g, potential_v(g, args.kappa, params.w), u_minus(g, args.l, args.kappa),
         u_plus(g, args.l, args.kappa)],
    )
    return 0


def _cmd_index(args) -> int:
    g = _grid(args)
    n_m, n_i, ratio = index_columns(g, args.l, args.lam, exact=args.exact_index)[:3]
    _grid_output(
        args,
        {"l": args.l, "lambda": args.lam, "exact": args.exact_index},
        ["rho", "n_maxwell", "n_iso", "ratio_minus_1"],
        [g, n_m, n_i, ratio],
    )
    return 0


def _cmd_family(args) -> int:
    g = _grid(args)
    params = DoParams.nodeless(args.kappa, args.l, args.lam)
    _grid_output(
        args,
        {"kappa": args.kappa, "l": args.l, "lambda": args.lam},
        ["rho", "u_minus", "u_bos", "f", "f_bos"],
        [g, *family_columns(g, params)],
    )
    return 0


def _cmd_langer(args) -> int:
    _check_samples(args.samples)
    if not -1.0 < args.lambda0 < math.inf or args.lambda0 == 0.0:
        raise ValueError(f"lambda0 must lie in (-1, 0) or (0, inf), got {args.lambda0:g}")
    if args.nb is not None and args.aufbau is not None:
        raise ValueError(
            f"choose one of --nb and --aufbau, got nb = {args.nb}, aufbau = {args.aufbau}"
        )
    if args.aufbau is not None:
        spectrum = fullline.aufbau_spectrum(args.aufbau)
        meta = {"variant": "aufbau", "N": args.aufbau}
    else:
        nb = 1 if args.nb is None else args.nb
        spectrum = fullline.rm_spectrum(nb)
        meta = {"variant": "fisheye", "nb": nb}
    if args.fmt == "json":
        payload = {
            "eigenvalues": [int(e) if float(e).is_integer() else float(e) for e in spectrum],
        }
        payload.update(meta)
        if args.aufbau is None:
            payload["family"] = {
                "lambda0": args.lambda0,
                "well_center": -fullline.rm_family_shift(args.lambda0),
                "rescaled_radius": fullline.rescale_radius(1.0, args.lambda0)
                if args.lambda0 > 0
                else None,
            }
            for name, value in payload["family"].items():
                if value is not None and not math.isfinite(value):
                    raise ValueError(f"{name} is not finite, got {name} = {value:g}")
        _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.output)
        return 0
    # csv: scan of the well, its superpartner and the single-state family
    xs = np.linspace(-6.0, 6.0, args.samples)
    if args.aufbau is not None:
        names = ["x", "v_minus"]
        cols = [xs, fullline.aufbau_rm_potential(xs, args.aufbau)]
    else:
        v_min = fullline.rm_potential(xs, nb)
        v_plus = fullline.rm_partner_potential(xs, nb)
        v_fam = fullline.rm_family_single(xs, args.lambda0)
        names = ["x", "v_minus", "v_plus", "v_family"]
        cols = [xs, v_min, v_plus, v_fam]
    _grid_output(args, meta, names, cols)
    return 0


def _cmd_figure(args) -> int:
    columns = figure_table(args.l, args.lam, _grid(args))
    names = ["rho", "n_maxwell", "n_iso", "ratio_minus_1", "f_bos_sq"]
    if args.fmt != "svg":
        _grid_output(args, {"l": args.l, "lambda": args.lam}, names, columns)
        return 0
    _check_finite(names, columns)
    grid, n_maxwell, n_iso, ratio, f_bos_sq = columns
    svg = svg_panels(
        [
            (grid, n_maxwell, "baseline index n_M"),
            (grid, n_iso, "family index n_iso"),
            (grid, ratio, "n_iso/n_M - 1"),
            (grid, f_bos_sq, "damped radial factor squared"),
        ],
        caption=f"index family: l={args.l}, lambda={args.lam:g}",
    )
    _emit(svg, args.output)
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
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
    _emit("\n".join(lines) + "\n", args.output)
    return 1 if n_fail else 0


_COMMANDS = {
    "potential": _cmd_potential,
    "index": _cmd_index,
    "family": _cmd_family,
    "langer": _cmd_langer,
    "figure": _cmd_figure,
    "verify": _cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number in exponent notation as a value.

    Python 3.11's pattern for a negative number (`^-\\d+$|^-\\d*\\.\\d+$`)
    has no exponent, so `--lambda0 -1e-3` took -1e-3 for an option.  The
    subcommand parsers are of this class too, since add_subparsers makes
    them of the parent's class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(
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
    p.add_argument("--N", type=int, help="total quantum number (default: nodeless value)")
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
    p.add_argument("--nb", type=int, help="well index of -nb(nb+1)/cosh^2 x (default 1)")
    p.add_argument("--aufbau", type=int, help="odd N for the half-width well variant")
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
    """Run one command line; returns the process exit code.

    numpy's floating-point warnings are silenced (_check_finite refuses a
    non-finite value), and a library warning is one `warning:` line.  A
    warning that the interpreter's filters turn into an error (`-W error`)
    is refused like a configuration error, with its text on one `error:` line.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return _COMMANDS[args.command](args)
        except (ValueError, OverflowError, RuntimeError, Warning) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
