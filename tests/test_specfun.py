import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_gegenbauer

from susy_fisheye.specfun import gegenbauer


@pytest.mark.parametrize("q", [0.5, 1.5, 7.2])
def test_degree_zero_is_unity(q):
    assert gegenbauer(0, q, 0.7) == 1.0


def test_degree_one_is_first_recurrence_step():
    # series oracle: C_1^q(xi) = 2 q xi
    assert gegenbauer(1, 1.5, 0.2) == pytest.approx(0.6, abs=1e-15)


def test_degree_two_matches_series():
    # series oracle: C_2^q(xi) = -q + 2 q (q+1) xi^2
    q, xi = 1.5, 0.5
    expected = -q + 2 * q * (q + 1) * xi**2
    assert expected == 0.375
    assert gegenbauer(2, q, xi) == pytest.approx(0.375, abs=1e-15)


@pytest.mark.parametrize("p", range(9))
@pytest.mark.parametrize("q", [0.5, 1.5, 2.7])
@pytest.mark.parametrize("xi", [-0.9, -0.3, 0.0, 0.2, 0.85, 1.0])
def test_matches_reference_library(p, q, xi):
    ours = gegenbauer(p, q, xi)
    ref = float(eval_gegenbauer(p, q, xi))
    assert ours == pytest.approx(ref, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("q", [0.5, 1.5, 2.5])
@pytest.mark.parametrize("xi", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_recurrence_consistency(q, xi):
    vals = [gegenbauer(p, q, xi) for p in range(12)]
    for p in range(1, 11):
        lhs = (p + 1) * vals[p + 1]
        rhs = 2 * (p + q) * xi * vals[p] - (p + 2 * q - 1) * vals[p - 1]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    p=st.integers(min_value=0, max_value=10),
    q=st.sampled_from([0.5, 1.0, 1.5, 2.5, 4.0]),
    xi=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_parity_property(p, q, xi):
    plus = gegenbauer(p, q, xi)
    minus = gegenbauer(p, q, -xi)
    assert minus == pytest.approx((-1.0) ** p * plus, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("q", [0.5, 1.5, 2.5])
def test_array_argument_matches_scalar_loop(q):
    xi = np.linspace(-1.0, 1.0, 41)
    for p in range(9):
        got = gegenbauer(p, q, xi)
        ref = np.array([gegenbauer(p, q, float(x)) for x in xi])
        assert got.shape == xi.shape
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("p", range(9))
def test_order_column_matches_per_order_calls(p):
    q = np.array([[0.5], [1.5], [2.7], [4.0]])
    xi = np.linspace(-1.0, 1.0, 21)
    got = gegenbauer(p, q, xi)
    assert got.shape == (4, 21)
    for row, order in zip(got, q[:, 0]):
        assert np.array_equal(row, gegenbauer(p, float(order), xi))
    # xi and -xi on a leading axis, as verify's parity check passes them
    both = gegenbauer(p, q, np.stack([xi, -xi])[:, None, :])
    assert np.array_equal(both[0], got)
    assert np.array_equal(both[1], gegenbauer(p, q, -xi))


def test_nan_order_and_argument_refused():
    with pytest.raises(ValueError, match=r"^order must be > -1/2, got order = nan$"):
        gegenbauer(2, math.nan, 0.3)
    with pytest.raises(ValueError, match=r"^order must be > -1/2, got order = nan$"):
        gegenbauer(2, np.array([[1.5], [math.nan]]), 0.3)
    with pytest.raises(ValueError, match=r"^argument must lie in \[-1, 1\], got argument = nan$"):
        gegenbauer(2, 1.5, math.nan)
    with pytest.raises(ValueError, match=r"^argument must lie in \[-1, 1\], got argument = nan$"):
        gegenbauer(2, 1.5, np.array([0.0, math.nan, 2.0]))


def test_domain_errors():
    with pytest.raises(ValueError, match=r"non-negative integer, got degree = -1$"):
        gegenbauer(-1, 1.5, 0.0)
    with pytest.raises(ValueError, match=r"got argument = 1.5$"):
        gegenbauer(2, 1.5, 1.5)
    with pytest.raises(ValueError, match=r"order must be > -1/2, got order = -0.5$"):
        gegenbauer(2, -0.5, 0.0)
    with pytest.raises(ValueError, match=r"argument must lie in \[-1, 1\], got argument = -1.2$"):
        gegenbauer(2, 1.5, np.array([0.0, 0.5, -1.2]))


