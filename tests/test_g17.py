"""The vectorised %.17g kernel gives the bytes of CPython's `'%.17g' % v`."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import susy_fisheye
from susy_fisheye import _g17


def kernel_text(values, sep=b"\n"):
    buf = bytearray()
    _g17.write(buf, values, np.full(len(values), sep[0], np.uint8))
    return buf.decode()


def reference_text(values, sep="\n"):
    return "".join(f"{v:.17g}{sep}" for v in values.tolist())


def mismatches(values):
    """(value, kernel, %.17g) of every value the kernel writes differently."""
    got, want = kernel_text(values).split("\n"), reference_text(values).split("\n")
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


def test_kernel_equals_percent_g17():
    values, _ = adversarial_values()
    assert len(values) > 35_000
    assert mismatches(values)[:10] == []


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


def test_a_small_table_builds_no_tables():
    # the tables are built on first use, so small outputs pay no set-up
    src = str(Path(susy_fisheye.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "from susy_fisheye import _g17, cli\n"
        "cli.main(['figure', '--samples', '300'])\n"
        "print(_g17._tables.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True, timeout=60)
    assert proc.stdout.splitlines()[-1] == "0"
