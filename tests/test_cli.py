import collections
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import susy_fisheye
from susy_fisheye import _g17, do_core, fullline, isospectral, svgplot
from susy_fisheye.cli import _CSV_SWITCH, _columns_csv, _columns_json, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_alone(*argv, **env_vars):
    """(exit code, stdout, stderr) of one command in a fresh interpreter.

    A command that runs past 60 s raises subprocess.TimeoutExpired, so a
    hang fails the test instead of stalling the run.
    """
    src = str(Path(susy_fisheye.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               **env_vars)
    proc = subprocess.run(
        [sys.executable, "-m", "susy_fisheye", *argv],
        capture_output=True, text=True, env=env, check=False, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def reference_csv(names, columns):
    """The per-value CSV writer the table-at-a-time one replaced."""
    lines = [",".join(names)]
    for row in zip(*columns):
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    return "\n".join(lines) + "\n"


def assert_same_lines(got, want):
    """The bytes `got` equal the text `want`, reporting the first differing lines.

    pytest's own diff of two long strings that differ on many lines takes
    minutes; this fails at once.
    """
    got, want = bytes(got).split(b"\n"), want.encode().split(b"\n")
    assert [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w][:5] == []
    assert len(got) == len(want)


def reference_json(command, params, names, columns):
    """The per-value JSON writer the column-at-a-time one replaced."""
    payload = {
        "command": command,
        "params": params,
        "data": {name: [float(v) for v in col] for name, col in zip(names, columns)},
    }
    return json.dumps(payload, indent=2) + "\n"


def reference_polyline(x, y, ox, oy):
    """The per-point polyline of one svgplot panel, as it was written before."""
    x, y = list(map(float, x)), list(map(float, y))
    x_lo, x_hi = min(x), max(x)
    y_lo, y_hi = min(y), max(y)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    inner_w = svgplot._PANEL_W - svgplot._MARGIN_L - svgplot._MARGIN_R
    inner_h = svgplot._PANEL_H - svgplot._MARGIN_T - svgplot._MARGIN_B
    return " ".join(
        f"{ox + svgplot._MARGIN_L + inner_w * (a - x_lo) / (x_hi - x_lo):.2f},"
        f"{oy + svgplot._MARGIN_T + inner_h * (1.0 - (b - y_lo) / (y_hi - y_lo)):.2f}"
        for a, b in zip(x, y)
    )


def adversarial_columns(rows, seed):
    """Columns of extreme, integral and random finite float64 values."""
    rng = np.random.default_rng(seed)
    special = np.array([
        -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
        1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0, 1e16, 1e15, 1e17,
        2.0**53, 2.0**53 + 2.0, 1e22, 1e23, 0.1, 1 / 3, 123456789.0, 1e-5, 1e-4, 1e21,
    ])
    decades = rng.choice([-1.0, 1.0], 4 * rows) * 10.0 ** rng.uniform(-300.0, 300.0, 4 * rows)
    bits = rng.integers(-(2**63), 2**63 - 1, rows, dtype=np.int64).view(np.float64)
    pool = np.concatenate([special, decades, bits[np.isfinite(bits)]])
    return [rng.permutation(pool)[:rows] for _ in range(5)]


class TestFigureCommand:
    def test_csv_schema_and_shape(self, capsys):
        code, out, err = run_cli(
            capsys, "figure", "--l", "1", "--lambda", "1", "--samples", "10"
        )
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "rho,n_maxwell,n_iso,ratio_minus_1,f_bos_sq"
        assert len(lines) == 11
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(
                ["figure", "--l", "2", "--lambda", "10", "--samples", "40",
                 "--output", str(path)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_svg_output(self, tmp_path):
        path = tmp_path / "fig.svg"
        code = main(
            ["figure", "--l", "1", "--lambda", "1", "--samples", "30",
             "--format", "svg", "--output", str(path)]
        )
        assert code == 0
        text = path.read_text()
        assert text.startswith("<svg xmlns=")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<polyline") == 4
        assert "href" not in text  # self-contained, no external references

    def test_svg_of_an_axis_one_ulp_wide_returns(self):
        # an x axis one ulp wide: its tick step is below half an ulp of 1.0
        code, out, err = run_alone(
            "figure", "--format", "svg", "--rho-min", "1", "--rho-max", "1.0000000000000002",
            "--samples", "2",
        )
        assert (code, err) == (0, "")
        assert out.count("<polyline") == 4
        # every x tick, a vertical line, lies inside the plot box of its column
        lines = re.findall(r'<line x1="([^"]*)" y1="[^"]*" x2="([^"]*)"', out)
        ticks = [float(a) for a, b in lines if a == b]
        assert len(ticks) == 4
        assert all(62.0 <= t <= 414.0 or 492.0 <= t <= 844.0 for t in ticks)

    @pytest.mark.parametrize(
        "x,y,message",
        [
            ([2.0, 2.0], [0.0, 1.0], "panel 'p': x must not be constant, got x = 2"),
            ([0.0, np.nan], [0.0, 1.0], "panel 'p': x and y must be finite"),
            ([0.0, 1.0], [np.inf, 1.0], "panel 'p': x and y must be finite"),
            ([-1e308, 1e308], [0.0, 1.0],
             "panel 'p': the range of x overflows, got -1e+308 to 1e+308"),
            ([0.0, 1.0], [0.0, 1.7e308],
             "panel 'p': the range of padded y overflows, got -8.5e+306 to 1.785e+308"),
            # a quarter of the range is the raw tick step
            ([0.0, 5e-324], [0.0, 1.0],
             "panel 'p': the range of x is too narrow to tick, got 0 to 4.94066e-324"),
            ([0.0, 1.0], [1e300, 1e300],
             "panel 'p': the range of padded y is too narrow to tick, got 1e+300 to 1e+300"),
        ],
        ids=["constant-x", "nan-x", "inf-y", "x-range-overflows", "y-range-overflows",
             "x-range-underflows", "padded-y-range-underflows"],
    )
    def test_svg_panels_refuses_a_degenerate_panel(self, x, y, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            svgplot.svg_panels([([0.0, 1.0], [0.0, 1.0], "ok"), (x, y, "p")])

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_non_positive_index_is_refused(self, capsys, tmp_path, fmt):
        # at l = 1, lam = 1 the first-order ratio falls below -1 before rho = 30
        path = tmp_path / f"fig.{fmt}"
        code, out, err = run_cli(
            capsys, "figure", "--l", "1", "--rho-max", "30", "--samples", "2",
            "--format", fmt, "--output", str(path),
        )
        assert (code, out) == (2, "")
        assert err == "error: index columns must be strictly positive\n"
        assert not path.exists()

    @pytest.mark.parametrize(
        "samples,digest",
        [
            (300, "a3f224d9f0f818ddd3619be4420a802e952ba1c78c529b682dcb485d43a1d4f3"),
            (3000, "c14ab78a7a6b186ed6b3fc3851b7d85c7af3c7ca19efbb477becffca03b36898"),
        ],
    )
    def test_svg_bytes_are_pinned(self, capsys, samples, digest):
        code, out, err = run_cli(
            capsys, "figure", "--l", "2", "--lambda", "10", "--samples", str(samples),
            "--format", "svg",
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "figure", "--l", "1", "--lambda", "1", "--samples", "4",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["data"]) == {
            "rho", "n_maxwell", "n_iso", "ratio_minus_1", "f_bos_sq"
        }
        assert len(payload["data"]["rho"]) == 4


class TestWriters:
    """The table writers give the bytes of the per-value writers they replaced."""

    NAMES = ["rho", "n_maxwell", "n_iso", "ratio_minus_1", "f_bos_sq"]
    PARAMS = {"l": 2, "lambda": 10.0, "exact": False, "N": 0, "w": 0.5}

    SMALL = [pytest.param(rows, seed, 5, id=f"{rows}-{seed}")
             for rows, seed in [(2, 0), (2, 1), (7, 2), (300, 3), (3000, 4)]]
    # around CHUNK = 4096 values, JSON's switch to the kernel and the
    # kernel's chunk size: the largest table below it, exactly one chunk,
    # and a second chunk holding a partial row (4 columns as langer writes,
    # 5 as figure)
    SWITCH = [pytest.param(rows, 5, width, id=f"{rows * width}-values-{width}-columns")
              for rows, width in [(1023, 4), (1024, 4), (1025, 4), (819, 5), (820, 5), (1639, 5)]]
    # around CSV's switch to the kernel: whole rows make the largest table
    # below it, the smallest one at or past it, and one row more
    CSV_SWITCH = [pytest.param(rows, 6, width, id=f"{rows * width}-values-{width}-columns")
                  for width in (4, 5)
                  for rows in (math.ceil(_CSV_SWITCH / width) + k for k in (-1, 0, 1))]

    @pytest.mark.parametrize("rows,seed,width", SMALL + SWITCH + CSV_SWITCH)
    def test_csv_bytes(self, rows, seed, width):
        names, columns = self.NAMES[:width], adversarial_columns(rows, seed)[:width]
        assert_same_lines(_columns_csv(names, columns), reference_csv(names, columns))

    # as figure writes them: 4095 values take the repr writer, 4100 and 8195
    # the kernel
    @pytest.mark.parametrize("rows,seed,width", SMALL + SWITCH[3:])
    def test_json_bytes(self, rows, seed, width):
        names, columns = self.NAMES[:width], adversarial_columns(rows, seed)[:width]
        expected = reference_json("figure", self.PARAMS, names, columns)
        assert_same_lines(_columns_json("figure", self.PARAMS, names, columns), expected)

    # 2049 rows are 4098 values, so a chunk of _g17.chunks_2f ends inside a panel
    @pytest.mark.parametrize("rows,seed", [(2, 0), (300, 1), (2049, 4), (3000, 2)])
    def test_svg_polyline_points(self, rows, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0.01, 10.0 ** rng.uniform(-3, 3), rows))
        panels = [
            (x, rng.standard_normal(rows) * 10.0 ** rng.uniform(-8, 8), "a"),
            (x, np.full(rows, 0.25), "flat"),
            (x, np.cumsum(rng.standard_normal(rows)), "walk"),
            (x, 1.0 + 1e-12 * rng.standard_normal(rows), "narrow"),
        ]
        svg = svgplot.svg_panels(panels, caption="c")
        written = re.findall(r'<polyline points="([^"]*)"', svg)
        offsets = [(0, 0), (svgplot._PANEL_W, 0), (0, svgplot._PANEL_H),
                   (svgplot._PANEL_W, svgplot._PANEL_H)]
        assert written == [
            reference_polyline(px, py, ox, oy) for (px, py, _), (ox, oy) in zip(panels, offsets)
        ]

    SPECIAL = [np.array([-0.0, 5e-324]), np.array([2.2250738585072014e-308, 1e16]),
               np.array([1.7976931348623157e308, 1.0])]
    SPECIAL_ROWS = ("-0,2.2250738585072014e-308,1.7976931348623157e+308\n"
                    "4.9406564584124654e-324,10000000000000000,1\n")

    def test_special_values_are_written(self):
        columns, names = self.SPECIAL, ["a", "b", "c"]
        assert _columns_csv(names, columns) == ("a,b,c\n" + self.SPECIAL_ROWS).encode()
        assert _columns_json("x", {}, names, columns) == (
            b'{\n  "command": "x",\n  "params": {},\n  "data": {\n'
            b'    "a": [\n      -0.0,\n      5e-324\n    ],\n'
            b'    "b": [\n      2.2250738585072014e-308,\n      1e+16\n    ],\n'
            b'    "c": [\n      1.7976931348623157e+308,\n      1.0\n    ]\n  }\n}\n'
        )

    def test_special_values_are_written_past_the_switch(self):
        # 2048 copies of the two rows are 12 288 values, three kernel chunks
        # as CSV, one column of 4096 values, one chunk, each as JSON
        columns, names = [np.tile(c, 2048) for c in self.SPECIAL], ["a", "b", "c"]
        assert_same_lines(_columns_csv(names, columns), "a,b,c\n" + self.SPECIAL_ROWS * 2048)
        assert_same_lines(_columns_json("x", {}, names, columns),
                          reference_json("x", {}, names, columns))

    def test_comma_is_expanded_in_every_chunk(self):
        # one column of three kernel chunks, the last one partial
        columns = [np.arange(2 * _g17.CHUNK + 3) / 8.0]
        assert_same_lines(_columns_json("x", {}, ["a"], columns),
                          reference_json("x", {}, ["a"], columns))

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "--format", "json", "--l", "2", "--lambda", "10", "--samples", "50"],
            ["potential", "--format", "json", "--kappa", "0.5", "--N", "3", "--samples", "9"],
            ["index", "--format", "json", "--exact-index", "--samples", "9"],
            ["family", "--format", "json", "--kappa", "0.7", "--l", "0", "--samples", "9"],
            ["langer", "--format", "csv", "--nb", "3", "--samples", "9"],
        ],
    )
    def test_command_output_parses_back_exactly(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        if "json" in argv:
            payload = json.loads(out)
            names = list(payload["data"])
            columns = [np.array(payload["data"][n]) for n in names]
            assert out == reference_json(argv[0], payload["params"], names, columns)
        else:
            header, *rows = out.splitlines()
            columns = list(np.array([[float(v) for v in r.split(",")] for r in rows]).T)
            assert out == reference_csv(header.split(","), columns)

    @pytest.mark.parametrize("samples", ["4", "1000"])
    def test_text_only_stdout_gets_the_same_text(self, capsys, samples):
        # the kernel's bytes reach stdout as text, so a StringIO stdout works
        argv = ["figure", "--format", "json", "--samples", samples]
        expected = run_cli(capsys, *argv)
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = main(argv)
        assert (code, text.getvalue(), "") == expected


class TestGridCommands:
    def test_potential_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "potential", "--kappa", "0.5", "--l", "1", "--samples", "5"
        )
        assert code == 0
        assert out.startswith("rho,v,u_minus,u_plus\n")

    def test_index_exact_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "index", "--l", "1", "--lambda", "1", "--samples", "3",
            "--rho-min", "0.5", "--rho-max", "1.5", "--exact-index",
        )
        assert code == 0
        assert out.startswith("rho,n_maxwell,n_iso,ratio_minus_1\n")

    def test_family_csv(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--l", "0", "--samples", "4")
        assert code == 0
        assert out.startswith("rho,u_minus,u_bos,f,f_bos\n")
        assert len(out.strip().split("\n")) == 5

    @pytest.mark.parametrize("kappa,rho_max", [("1.8", "1000"), ("0.7", "1e6")])
    def test_family_general_kappa_large_radius(self, capsys, kappa, rho_max):
        # an absolute quadrature tolerance could not follow I0 ~ rho here
        code, out, err = run_cli(
            capsys, "family", "--kappa", kappa, "--l", "0", "--rho-max", rho_max
        )
        assert code == 0 and err == ""
        rows = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
        assert rows.shape == (300, 5) and np.all(np.isfinite(rows))

    @pytest.mark.parametrize(
        "kappa,l,rho_max",
        [("0.7", "0", "1e200"), ("0.3", "0", "1e300"), ("2", "2", "1e60"), ("0.005", "0", "1e10"),
         ("0.5", "0", "1e40")],
    )
    def test_family_past_the_quadrature_range(self, capsys, kappa, l, rho_max):
        # the quadrature's f^2 left the float range at 1e200, 1e300 and 1e60
        # (exit 2); the beta series stays finite, and at kappa = 0.005 no
        # radius reaches its switch; at kappa = 1/2, arctan(sqrt(rho))
        # rounds to pi/2 past about 4e31, where the series needs no angle
        code, out, err = run_cli(
            capsys, "family", "--kappa", kappa, "--l", l, "--rho-max", rho_max
        )
        assert code == 0 and err == ""
        rows = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
        assert rows.shape == (300, 5) and np.all(np.isfinite(rows))

    def test_family_small_lambda_against_the_quadrature(self, capsys):
        # I0 is about 1e-15 on this grid, so with lam = 1e-12 the columns
        # carry I0's relative error
        code, out, err = run_cli(
            capsys, "family", "--kappa", "0.5", "--l", "2", "--lambda", "1e-12",
            "--rho-max", "0.05", "--samples", "3",
        )
        assert (code, err) == (0, "")
        rho, u_m, u_bos, f, f_bos = np.array(
            [line.split(",") for line in out.splitlines()[1:]], dtype=float
        ).T
        denom = isospectral.i0_quadrature(rho, 2, 0.5) + 1e-12
        df = do_core.radial_factor_df(rho, 2, 0.5)
        want_u = u_m - 4.0 * f * df / denom + 2.0 * f**4 / denom**2
        assert np.max(np.abs(u_bos / want_u - 1.0)) < 1e-9
        assert np.max(np.abs(f_bos / (f / denom) - 1.0)) < 1e-9


I0_PATHS = ("_i0_beta", "i0_closed_one")
FAMILY_TERMS = ("radial_factor_f", "radial_factor_df", "u_minus")


@pytest.fixture
def calls(monkeypatch):
    """Counts of I0 calls (any route), of the quadrature oracle and of the do_core family terms.

    Each function is wrapped in every module of the package that binds
    it by name, so a call through any import is counted.
    """
    counts = collections.Counter()
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "susy_fisheye"]
    for name in I0_PATHS + ("i0_quadrature",) + FAMILY_TERMS:
        original = getattr(do_core if name in FAMILY_TERMS else isospectral, name)
        key = "i0" if name in I0_PATHS else name

        def wrapper(*args, _fn=original, _key=key, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return counts


class TestFamilyTerms:
    """Each family request evaluates I0, f and f' once, and U- only for a column."""

    @pytest.mark.parametrize(
        "argv,u_minus",
        [
            (("family", "--kappa", "0.7", "--l", "0"), 1),  # I0 by the beta series
            (("family", "--kappa", "0.5", "--l", "1"), 1),
            (("family", "--kappa", "1"), 1),
            (("figure",), 0),
            (("index",), 0),
            (("index", "--l", "2", "--exact-index"), 1),
        ],
    )
    def test_one_evaluation_per_request(self, capsys, calls, argv, u_minus):
        code, _, err = run_cli(capsys, *argv, "--samples", "50")
        assert (code, err) == (0, "")
        # the quadrature is the oracle of verify and the tests, never a request's route
        expected = {"i0": 1, "i0_quadrature": 0, "radial_factor_f": 1, "radial_factor_df": 1,
                    "u_minus": u_minus}
        assert {key: calls[key] for key in expected} == expected

    # stdout digests recorded before the family terms were shared; the two
    # kappa = 0.7 ones again when I0 moved from the quadrature to the beta
    # series (464 of 1500 values moved, by at most 6.2e-13 relative), and
    # the two kappa = 1/2 ones when I0 moved from its closed form to the
    # beta series (298 f_bos values moved, by at most 2.0e-15 relative)
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (("family", "--kappa", "0.7", "--l", "0"),
             "a9394c945b0d9ea94c30b34d75e7a16aaee08f9e4f499df366f5b044cc60e74a"),
            (("family", "--kappa", "0.7", "--l", "0", "--format", "json"),
             "e92f1c5dd7e68e6d0af62f3ee03003c0b5a5df20d936bf71cf074b0712e94e65"),
            (("family", "--kappa", "0.5", "--l", "3"),
             "2f74d83b2d9ab3e5137e14241973c4d614dbc29bd5d3a9bdf58b0d80046e8411"),
            (("family", "--kappa", "0.5", "--l", "3", "--format", "json"),
             "28e917f9add656a7b6359ff23ea6e06b4cfbfdde50d087979f9a1af2ccef6530"),
            (("family",), "1e59c3f7a5c91989aba5720d07c7377e7ba50885c9152b05d2836cfd9c0326c9"),
            (("family", "--format", "json"),
             "378c6778dde8eeecb0cc962e7a95776c7731af14a994487cf7eedf0b77a79e75"),
            (("index",), "88bcc9dfca7deac175a9f904cbf286a534ccfe669c997f386b1dee4cfe38de0f"),
            (("index", "--exact-index"),
             "30c300d5f479165765dfbe514290965f32e4d7708b4190b447e4d82d009f8874"),
        ],
    )
    def test_output_bytes_are_pinned(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestLangerCommand:
    def test_spectrum_json(self, capsys):
        code, out, _ = run_cli(capsys, "langer", "--nb", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["eigenvalues"] == [-9, -4, -1]

    def test_family_metadata(self, capsys):
        code, out, _ = run_cli(
            capsys, "langer", "--nb", "1", "--lambda0", "1", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["family"]["rescaled_radius"] == pytest.approx(2**-0.5)
        assert payload["family"]["well_center"] == pytest.approx(-0.3465735902799726)

    def test_family_json_is_valid_at_the_smallest_lambda0(self, capsys):
        # 1/lambda0 overflowed, and well_center was written as -Infinity
        code, out, err = run_cli(
            capsys, "langer", "--nb", "2", "--lambda0", "5e-324", "--format", "json"
        )
        assert (code, err) == (0, "")
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
        assert payload["family"]["well_center"] == -372.2200359606906

    def test_non_finite_json_field_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(fullline, "rm_family_shift", lambda lambda0: math.inf)
        code, out, err = run_cli(capsys, "langer", "--nb", "2", "--format", "json")
        assert (code, out) == (2, "")
        assert err == "error: well_center is not finite, got well_center = -inf\n"

    def test_aufbau_spectrum(self, capsys):
        code, out, _ = run_cli(capsys, "langer", "--aufbau", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["eigenvalues"] == [-2.25, -1, -0.25]

    def test_flat_partner_csv_is_pinned(self, capsys):
        # at nb = 1 the partner well is flat and its column prints 0, not -0
        code, out, err = run_cli(capsys, "langer", "--nb", "1", "--format", "csv")
        assert (code, err) == (0, "")
        assert {line.split(",")[2] for line in out.splitlines()[1:]} == {"0"}
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c12d3967c470bd69195a8040f72ec5ec3b95553b0544d65c3b639170adab95e3"
        )

    def test_scan_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "langer", "--nb", "2", "--format", "csv", "--samples", "7"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,v_minus,v_plus,v_family"
        assert len(lines) == 8


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--lambda0", "0"],
            ["--lambda0", "-2"],
            ["--aufbau", "2"],
            ["--nb", "-1"],
            ["--aufbau", "3", "--lambda0", "0"],
            ["--lambda0", "nan"],
            ["--nb", "0"],
            ["--aufbau", "0"],
        ],
        ids=["lambda0-zero", "lambda0-below-minus-one", "aufbau-even", "nb-negative",
             "aufbau-lambda0-zero", "lambda0-nan", "nb-zero", "aufbau-zero"],
    )
    def test_langer_rejects_bad_parameters(self, capsys, argv):
        code, out, err = run_cli(capsys, "langer", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_lambda0_message_names_the_value(self, capsys):
        _, _, err = run_cli(capsys, "langer", "--aufbau", "3", "--lambda0", "-2")
        assert err == "error: lambda0 must lie in (-1, 0) or (0, inf), got -2\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_langer_refuses_nb_with_aufbau(self, capsys, fmt):
        code, out, err = run_cli(capsys, "langer", "--nb", "3", "--aufbau", "3", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: choose one of --nb and --aufbau, got nb = 3, aufbau = 3\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            # u_plus turns into inf/inf at rho >~ 1e154
            (["potential", "--rho-max", "1e200"], "u_plus is not finite at rho = 3.33e+199"),
            # NaN fails the configuration check before any output is computed
            (["figure", "--lambda", "nan"], "lambda must be positive, got lambda = nan"),
            (
                ["figure", "--lambda", "nan", "--format", "svg"],
                "lambda must be positive, got lambda = nan",
            ),
            # rho^(l+1) overflows in the radial factor
            (["figure", "--l", "40", "--rho-max", "1e9"], "n_iso is not finite at rho = 3.33e+08"),
            (
                ["figure", "--l", "40", "--rho-max", "1e9", "--format", "svg"],
                "n_iso is not finite at rho = 3.33e+08",
            ),
            # rho^(2 kappa) overflows in f', while I0 stays finite
            (
                ["family", "--kappa", "0.7", "--l", "0", "--rho-max", "1e300"],
                "u_bos is not finite at rho = 3.33e+299",
            ),
        ],
        ids=["potential-overflow", "figure-csv-nan", "figure-svg-nan", "figure-csv-overflow",
             "figure-svg-overflow", "family-general-kappa-overflow"],
    )
    def test_non_finite_output_is_refused(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "--samples", "4")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["potential", "--rho-min", "1e-13"], "rho must be >= 1e-12, got rho = 1e-13"),
            (["family", "--kappa", "-1"], "kappa must be positive, got kappa = -1"),
            (["potential", "--kappa", "nan"], "kappa must be positive, got kappa = nan"),
            (["family", "--lambda", "nan"], "lambda must be positive, got lambda = nan"),
            (["family", "--lambda", "inf"], "lambda must be finite, got lambda = inf"),
            (["index", "--lambda", "inf"], "lambda must be finite, got lambda = inf"),
            (["figure", "--lambda", "inf"], "lambda must be finite, got lambda = inf"),
            (["index", "--l", "-2"], "l must be non-negative, got l = -2"),
            (["potential", "--N", "-1"], "N must be a positive integer, got N = -1"),
            (["potential", "--N", "0"], "N must be a positive integer, got N = 0"),
            (["langer", "--nb", "-1"], "n_b_int must be a positive integer, got n_b_int = -1"),
            (["langer", "--nb", "0"], "n_b_int must be a positive integer, got n_b_int = 0"),
            (
                ["langer", "--aufbau", "2"],
                "N_aufbau must be a positive odd integer, got N_aufbau = 2",
            ),
            (
                ["langer", "--aufbau", "0"],
                "N_aufbau must be a positive odd integer, got N_aufbau = 0",
            ),
            (
                ["figure", "--rho-max", "1e200"],
                "beta must lie in [0, pi/2), but arctan(rho) rounds to pi/2 at "
                "rho = 1e+200: beyond the range of the closed form of I0",
            ),
            (
                ["family", "--kappa", "0.7", "--l", "1"],
                "nodeless sector needs integral 1 + l/kappa, got l = 1, kappa = 0.7 "
                "(1 + l/kappa = 2.43)",
            ),
            # a = 3/2 kappa overflows; rho^2k overflows at the largest float
            (
                ["family", "--kappa", "1e-310", "--l", "0"],
                "kappa is beyond the range of the I0 series, got kappa = 1e-310",
            ),
            (
                ["family", "--kappa", "inf", "--l", "0"],
                "kappa is beyond the range of the I0 series, got kappa = inf",
            ),
        ],
        ids=["rho-below-floor", "kappa-negative", "kappa-nan", "lambda-nan",
             "family-lambda-inf", "index-lambda-inf", "figure-lambda-inf", "l-negative",
             "N-negative", "N-zero", "nb-negative", "nb-zero", "aufbau-even", "aufbau-zero",
             "beta-rounds-to-pi-half",
             "nodeless-non-integral", "kappa-below-series-range", "kappa-inf"],
    )
    def test_message_names_the_parameter_and_value(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "--samples", "2")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_refusal_is_the_only_stderr_line(self):
        # pytest captures numpy's warnings in process; a child process shows
        # the stderr a user sees
        assert run_alone("potential", "--rho-max", "1e200", "--samples", "4") == (
            2, "", "error: u_plus is not finite at rho = 3.33e+199\n"
        )

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("family --kappa -1 --lambda nan", "kappa must be positive, got kappa = -1"),
            ("figure --samples 1 --lambda nan", "samples must be >= 2, got samples = 1"),
            ("figure --l -1 --lambda nan", "l must be non-negative, got l = -1"),
            ("family --rho-min 1e-13 --lambda nan", "lambda must be positive, got lambda = nan"),
            ("potential --kappa 0.7 --l -1", "l must be non-negative, got l = -1"),
            (
                "index --rho-min 2 --rho-max 1 --l -1",
                "need 0 < rho-min < rho-max, got rho-min = 2, rho-max = 1",
            ),
            (
                "langer --nb 3 --aufbau 3 --lambda0 0",
                "lambda0 must lie in (-1, 0) or (0, inf), got 0",
            ),
            ("langer --nb -1 --lambda0 0", "lambda0 must lie in (-1, 0) or (0, inf), got 0"),
            ("langer --samples 1 --lambda0 0", "samples must be >= 2, got samples = 1"),
            ("family --samples 1 --rho-min 2 --rho-max 1", "samples must be >= 2, got samples = 1"),
            (
                "family --rho-min 0 --kappa -1",
                "need 0 < rho-min < rho-max, got rho-min = 0, rho-max = 3",
            ),
            ("family --kappa 0.7 --l 1 --lambda inf", "lambda must be finite, got lambda = inf"),
            ("potential --kappa -1 --N -1", "kappa must be positive, got kappa = -1"),
            # the spectrum is refused before the negative lambda0 warns
            (
                "langer --lambda0 -0.5 --nb -1",
                "n_b_int must be a positive integer, got n_b_int = -1",
            ),
        ],
    )
    def test_first_bad_option_in_a_fixed_order_is_refused(self, capsys, argv, message):
        # recorded when the options were checked in one configuration object:
        # samples, rho range, kappa, l, lambda, lambda0, nb/aufbau, then the library
        assert run_cli(capsys, *argv.split()) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_negative_value_in_exponent_notation_is_read(self, capsys, fmt):
        # argparse's own pattern took -1e-3 for an option and printed a usage block
        argv = ("langer", "--format", fmt, "--samples", "3")
        code, out, _ = run_cli(capsys, *argv, "--lambda0", "-1e-3")
        assert (code, out) == run_cli(capsys, *argv, "--lambda0=-1e-3")[:2]
        assert code == 0 and out

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("figure --rho-min -1e-3", "need 0 < rho-min < rho-max, got rho-min = -0.001, rho-max = 3"),
            ("figure --lambda -2.5E+2", "lambda must be positive, got lambda = -250"),
            ("family --kappa -.5e1", "kappa must be positive, got kappa = -5"),
        ],
    )
    def test_negative_value_in_exponent_notation_gets_the_cli_refusal(self, capsys, argv, message):
        assert run_cli(capsys, *argv.split()) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_negative_lambda0_warns_in_one_line(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "langer", "--lambda0", "-0.5", "--format", fmt, "--samples", "3"
        )
        assert code == 0 and out
        assert err == (
            "warning: lambda0 in (-1, 0) is outside the strictly isospectral branch; "
            "using |1 + 1/lambda0| for limit studies\n"
        )

    def test_warning_raised_as_an_error_is_refused(self, capsys):
        # as under -W error; a traceback would exit 1, the code of a failed
        # verification
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "langer", "--lambda0", "-0.5")
        assert (code, out) == (2, "")
        assert err == (
            "error: lambda0 in (-1, 0) is outside the strictly isospectral branch; "
            "using |1 + 1/lambda0| for limit studies\n"
        )

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (
                ["potential", "--samples", "3"],
                "rho,v,u_minus,u_plus\n"
                "0.01,-14.997000449940009,19985.002999550059,59991.001199850019\n"
                "1.5050000000000001,-1.4070782083495479,-0.52408574689768772,"
                "0.52990353179907757\n"
                "3,-0.14999999999999999,0.072222222222222215,0.036666666666666653\n",
            ),
            (
                ["langer", "--format", "csv", "--nb", "2", "--samples", "3"],
                "x,v_minus,v_plus,v_family\n"
                "-6,-0.0001474592844319962,-4.9153094810665397e-05,"
                "-9.8304981611677155e-05\n"
                "0,-6,-2,-1.7777777777777775\n"
                "6,-0.0001474592844319962,-4.9153094810665397e-05,"
                "-2.4576698408626924e-05\n",
            ),
            (
                ["langer", "--format", "csv", "--aufbau", "3", "--samples", "3"],
                "x,v_minus\n-6,-0.029598111496320578\n0,-3\n6,-0.029598111496320578\n",
            ),
        ],
    )
    def test_in_domain_output_is_unchanged(self, capsys, argv, expected):
        assert run_cli(capsys, *argv) == (0, expected, "")

    def test_potential_has_no_lambda_option(self, capsys):
        # lambda selects a family member; potential samples no family
        code, out, err = run_cli(capsys, "potential", "--lambda", "2")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --lambda 2" in err

    @pytest.mark.parametrize(
        "argv,target",
        [
            (["verify", "--suite", "specfun"], "missing/x"),
            (["figure", "--samples", "5"], "missing/x.csv"),
            (["figure", "--samples", "5"], "."),
        ],
        ids=["verify-missing-dir", "figure-missing-dir", "figure-directory"],
    )
    def test_unwritable_output_is_refused(self, capsys, tmp_path, argv, target):
        path = tmp_path / target
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        reason = "Is a directory" if target == "." else "No such file or directory"
        assert (code, out) == (2, "")
        assert err == f"error: cannot write --output {path}: {reason}\n"

    def test_config_error_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "figure", "--samples", "1")
        assert code == 2
        assert err == "error: samples must be >= 2, got samples = 1\n"

    def test_svg_only_for_figure(self, capsys):
        code, _, err = run_cli(capsys, "potential", "--format", "svg")
        assert code == 2
        assert "svg" in err

    def test_bad_rho_range(self, capsys):
        code, _, err = run_cli(
            capsys, "index", "--rho-min", "2.0", "--rho-max", "1.0"
        )
        assert code == 2
        assert err == "error: need 0 < rho-min < rho-max, got rho-min = 2, rho-max = 1\n"


class TestParserReuse:
    def test_calls_in_one_process_match_calls_alone(self, capsys):
        # the parser is built once per process; no call may leak into the next
        sequence = [
            ["family", "--kappa", "0.7", "--l", "0"],
            ["family"],
            ["figure", "--bogus"],
            ["figure", "--l", "2", "--lambda", "10"],
            # a refusal and a warning, as the refusal and warning tests call in process
            ["langer", "--lambda0", "-0.5", "--nb", "-1"],
            ["langer", "--lambda0", "-0.5", "--format", "csv", "--samples", "3"],
        ]
        in_process = [run_cli(capsys, *argv) for argv in sequence]
        assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 2, 0]
        assert in_process == [run_alone(*argv) for argv in sequence]
        assert in_process[1] != in_process[0]


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "specfun")
        assert code == 0
        assert "PASS gegenbauer-recurrence" in out
        assert out.strip().endswith("passed, 0 failed")

    def test_tolerance_env_is_ignored(self, capsys, monkeypatch):
        # no environment variable may widen a tolerance and turn a FAIL green
        monkeypatch.delenv("SUSY_FISHEYE_TOL", raising=False)
        plain = run_cli(capsys, "verify", "--suite", "specfun")
        monkeypatch.setenv("SUSY_FISHEYE_TOL", "1e6")
        assert run_cli(capsys, "verify", "--suite", "specfun") == plain
        assert "tol=1.000e-12" in plain[1]

    def test_output_does_not_depend_on_blas_threads(self):
        # the eigen-oracle's residuals are printed to four digits; they must
        # read the same whatever number of threads the BLAS runs on
        one, two = (run_alone("verify", "--suite", "fullline", OPENBLAS_NUM_THREADS=n)
                    for n in ("1", "2"))
        assert one[0] == 0 and "aufbau-ground-state" in one[1]
        assert one == two

    def test_known_failures_reported_honestly(self, capsys):
        # the full suite carries two documented out-of-tolerance checks
        code, out, _ = run_cli(capsys, "verify", "--suite", "fisheye")
        assert code == 1
        assert "FAIL index-ratio-percent-bound" in out
