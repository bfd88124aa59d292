"""The vectorised kernel gives the bytes of CPython's `'%.17g' % v`, `float.__repr__` and `'%.2f' % v`."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import susy_fisheye
from susy_fisheye import _g17


def kernel_text(values, sep=b"\n", shortest=False):
    seps = np.full(len(values), sep[0], np.uint8)
    return b"".join(_g17.chunks(values, seps, shortest)).decode()


def reference_text(values, sep="\n", shortest=False):
    if shortest:
        return "".join(f"{float.__repr__(v)}{sep}" for v in values.tolist())
    return "".join(f"{v:.17g}{sep}" for v in values.tolist())


def mismatches(values, shortest=False):
    """(value, kernel, CPython) of every value the kernel writes differently."""
    got = kernel_text(values, shortest=shortest).split("\n")
    want = reference_text(values, shortest=shortest).split("\n")
    assert len(got) == len(want)
    return [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]


def decade(rng, e, size):
    """Random values in [10**e, 10**(e + 1)) and their negatives."""
    x = 10.0 ** rng.uniform(e, e + 1, size)
    return np.concatenate([x, -x])


def with_neighbours(x):
    return np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])


def adversarial_values(seed=0):
    rng = np.random.default_rng(seed)
    bits = rng.integers(-(2**63), 2**63 - 1, 20_000, dtype=np.int64).view(np.float64)
    powers = np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)),
        [float(f"1e{k}") for k in range(-323, 309)],
    ])
    subnormals = rng.integers(1, 2**52, 2000, dtype=np.int64).view(np.float64)
    extremes = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         2.225073858507201e-308, 1.7976931348623157e308,
                         -1.7976931348623157e308])
    # exact ties at the 18th digit: x * 10 ends in .5 for E = 15, x * 100 for
    # E = 14; %g rounds them to even
    m15 = rng.integers(10**15, 2**51, 500).astype(np.float64)
    m14 = rng.integers(10**14, 10**15, 500).astype(np.float64)
    ties = np.concatenate([[2.0**50 + 0.25, 2.0**50 + 0.75], m15 + 0.25, m15 + 0.75,
                           m14 + 0.125, m14 + 0.375])
    # the fixed/exponent switches (E = -5, -4, 16, 17) and 3-digit exponents
    switches = np.concatenate(
        [decade(rng, e, 500) for e in (-5, -4, 16, 17, -100, 99, 100, 307, -308, -320)]
    )
    values = np.concatenate([bits[np.isfinite(bits)], with_neighbours(powers), subnormals,
                             -subnormals, extremes, ties, -ties, switches])
    return values, ties


def short_values(seed=0):
    """Values whose repr is shorter than 17 digits, and their neighbours."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1000.0, 1000.0, 2000)
    rounded = np.concatenate([np.round(u, d) for d in range(8)])
    # repr writes 1e+16 from E = 16, one decade before %.17g does
    integers = np.concatenate([np.arange(10**e - 300, 10**e + 300, 10**(e - 15), dtype=float)
                               for e in (15, 16, 17)])
    decimals = np.array([float(f"{m}e{k}") for m, k in zip(rng.integers(1, 10**6, 3000),
                                                           rng.integers(-330, 300, 3000))])
    return np.concatenate([with_neighbours(rounded), integers, decimals[np.isfinite(decimals)]])


def test_kernel_equals_percent_g17():
    values, _ = adversarial_values()
    assert len(values) > 35_000
    assert mismatches(values)[:10] == []


def test_shortest_equals_repr():
    # adversarial_values holds the powers of two with both neighbours, the
    # 17th-digit ties, E = -5 and -4, +-0.0, 5e-324 and the largest float
    values, _ = adversarial_values()
    values = np.concatenate([values, short_values()])
    assert len(values) > 60_000
    assert mismatches(values, shortest=True)[:10] == []


@pytest.mark.parametrize(
    "value,text",
    [(0.0, "0.0"), (-0.0, "-0.0"), (1.0, "1.0"), (-2.5, "-2.5"), (0.1, "0.1"),
     (1e-4, "0.0001"), (1.5e-5, "1.5e-05"), (1e15, "1000000000000000.0"), (1e16, "1e+16"),
     (2.0**53, "9007199254740992.0"), (1.2345e16, "1.2345e+16"), (1e22, "1e+22"),
     (1e23, "1e+23"), (2.0**-44, "5.684341886080802e-14"), (5e-324, "5e-324"),
     (1.7976931348623157e308, "1.7976931348623157e+308"), (2.0**50 + 0.25, "1125899906842624.2")],
)
def test_shortest_text(value, text):
    assert float.__repr__(value) == text
    assert kernel_text(np.array([value]), shortest=True) == text + "\n"


def test_ties_round_to_even():
    _, ties = adversarial_values()
    assert kernel_text(np.array([2.0**50 + 0.25, 2.0**50 + 0.75])) == (
        "1125899906842624.2\n1125899906842624.8\n"
    )
    assert mismatches(ties)[:10] == []


@pytest.mark.parametrize("sep", [b",", b"\n", b";"])
def test_each_value_is_followed_by_its_separator(sep):
    values = np.array([1.0, -0.0, 1e-5, 1e17, 0.1])
    assert kernel_text(values, sep) == reference_text(values, sep.decode())


def test_values_past_one_chunk():
    rng = np.random.default_rng(1)
    values = rng.standard_normal(2 * _g17.CHUNK + 3) * 10.0 ** rng.uniform(-6, 20)
    assert mismatches(values)[:10] == []
    assert mismatches(values, shortest=True)[:10] == []


def test_a_small_table_builds_no_tables():
    # the tables are built on first use, so small outputs pay no set-up: a
    # 250-value CSV is below cli._CSV_SWITCH, 1500-value JSON below one
    # chunk, and SVG has tables of its own; a 300-value CSV, at the switch,
    # builds them
    src = str(Path(susy_fisheye.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import os\n"
        "from susy_fisheye import _g17, cli\n"
        "out = ['--output', os.devnull]\n"
        "cli.main(['figure', '--samples', '50', *out])\n"
        "cli.main(['figure', '--samples', '300', '--format', 'json', *out])\n"
        "cli.main(['figure', '--samples', '300', '--format', 'svg', *out])\n"
        "print(_g17._tables.cache_info().currsize)\n"
        "cli.main(['figure', '--samples', '60', *out])\n"
        "print(_g17._tables.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True, timeout=60)
    assert proc.stdout.split() == ["0", "1"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shortest", [False, True], ids=["g17", "repr"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_value_is_refused(bad, shortest):
    # past one chunk, so the bad value is in a later chunk than the first
    values = np.concatenate([np.full(_g17.CHUNK + 1, 1.0), [bad]])
    style = "repr" if shortest else "'%.17g'"
    with pytest.raises(ValueError, match=f"^{re.escape(style)} takes finite values, got v = {bad!r}$"):
        kernel_text(values, shortest=shortest)


def text_2f(values, sep=b"\n"):
    seps = np.full(len(values), sep[0], np.uint8)
    return b"".join(_g17.chunks_2f(values, seps)).decode()


def mismatches_2f(values):
    """(value, kernel, CPython) of every value whose `%.2f` the kernel writes differently."""
    got = text_2f(values).split("\n")
    want = "".join(f"{v:.2f}\n" for v in values.tolist()).split("\n")
    assert len(got) == len(want)
    return [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]


def test_2f_exact_ties_round_to_even():
    # every multiple of 1/8 is exact in binary, and those ending in .x25 or
    # .x75 are ties at the second decimal
    eighths = np.arange(0.0, 9999.99, 0.125)
    assert text_2f(np.array([0.125, 0.375, 0.625, 2.5])) == "0.12\n0.38\n0.62\n2.50\n"
    assert mismatches_2f(with_neighbours(eighths))[:10] == []


def test_2f_near_ties():
    # three decimals ending in 5 lie within an ulp of a decimal tie, on
    # either side of it
    u = np.round(np.random.default_rng(2).uniform(0.0, 9999.99, 200_000), 3)
    assert mismatches_2f(with_neighbours(u))[:10] == []


def test_2f_edges_of_the_domain():
    # 9999.994999999999 is the largest float written 9999.99; the float
    # above it, 9999.995, lies past the decimal tie and is written 10000.00
    values = np.array([0.0, 5e-324, 0.004999999999999999, 0.005, 1.0, 9999.994999999999])
    assert text_2f(values) == "0.00\n0.00\n0.00\n0.01\n1.00\n9999.99\n"
    assert mismatches_2f(values) == []


def test_2f_values_past_one_chunk():
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 10.0 ** rng.uniform(0, 4, 2 * _g17.CHUNK + 3))
    assert mismatches_2f(values)[:10] == []
    assert text_2f(values, b" ").split(" ")[:-1] == [f"{v:.2f}" for v in values.tolist()]


@pytest.mark.parametrize("bad", [-1e-300, -0.0, 9999.995, np.inf, np.nan])
def test_2f_refuses_a_value_outside_its_domain(bad):
    values = np.concatenate([np.full(_g17.CHUNK + 1, 1.0), [bad]])
    with pytest.raises(ValueError, match=f"at most four integer digits, got v = {bad!r}"):
        text_2f(values)
