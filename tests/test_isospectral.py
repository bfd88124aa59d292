import ast
import collections
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import load_script
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from susy_fisheye import isospectral
from susy_fisheye.do_core import DoParams, _as_rho, superpotential_w, u_minus
from susy_fisheye.isospectral import (
    _family_terms,
    _family_values,
    _i0_finite,
    _i0_series,
    _series,
    i0,
    i0_closed_one,
    family_columns,
    i0_quadrature,
)
from susy_fisheye.numerics import derivative

exact = load_script("exact")

# frozen reference values at rho = 1, l = 0, kappa = 1 (I0 = 1 - pi/4)
I0_ONE = 1.0 - math.pi / 4.0
# for kappa = 1/2, l = 0 the symbolic antiderivative sec^2 b + 4 ln cos b - cos^2 b
# gives I0(rho=1) = 3/2 - 2 ln 2; adaptive quadrature reproduces it below
I0_HALF = 1.5 - 2.0 * math.log(2.0)


def v_gen(rho, params):
    """V_gen = f^-2 (lam + I0) of the family params."""
    f, denom = _family_values(rho, params.l, params.kappa, params.lam)
    return denom / f**2


def w_gen(rho, params):
    """W_gen = W + f^2 / (I0 + lam) of the family params."""
    f, denom = _family_values(rho, params.l, params.kappa, params.lam)
    return superpotential_w(rho, params.l, params.kappa) + f**2 / denom


def _i0_beta_reference(rho, l, kappa):
    """I0 = B_x(a, b) / 2 kappa for l >= 1, x = rho^2k / (1 + rho^2k).

    With a = (2l+3)/2k and b = (2l-1)/2k.  x and 1 - x are formed
    separately, and the complement form I_x(a, b) = 1 - I_(1-x)(b, a) is
    used above x = 1/2, so neither side loses digits to cancellation.
    """
    a, b = (2 * l + 3) / (2 * kappa), (2 * l - 1) / (2 * kappa)
    t = rho ** (2.0 * kappa)
    x, y = t / (1.0 + t), 1.0 / (1.0 + t)
    regularized = np.where(x <= 0.5, special.betainc(a, b, x), special.betaincc(b, a, y))
    return special.beta(a, b) * regularized / (2.0 * kappa)


def _i0_quad_reference(rho, kappa):
    """I0 at l = 0 (where b < 0) by scipy quad, split at powers of 2."""
    f2 = lambda s: s * s * (1.0 + s ** (2.0 * kappa)) ** (-1.0 / kappa)
    out = []
    for r in rho:
        edges = [0.0] + [2.0**j for j in range(-21, 30) if 2.0**j < r] + [r]
        pieces = (quad(f2, lo, hi, epsabs=0.0, epsrel=1e-13)[0] for lo, hi in zip(edges, edges[1:]))
        out.append(math.fsum(pieces))
    return np.array(out)


class TestQuadrature:
    def test_empty_integral(self):
        assert i0_quadrature(1e-10, 0, 1.0) == pytest.approx(0.0, abs=1e-20)

    def test_kappa_one_value(self):
        # analytic antiderivative: rho - arctan rho
        assert i0_quadrature(1.0, 0, 1.0) == pytest.approx(I0_ONE, abs=1e-11)

    def test_kappa_half_value(self):
        assert i0_quadrature(1.0, 0, 0.5) == pytest.approx(I0_HALF, abs=1e-11)

    def test_non_decreasing(self):
        vals = [i0_quadrature(r, 1, 1.0) for r in (0.2, 0.5, 1.0, 3.0, 10.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("kappa", [0.25, 1 / 3, 0.4, 2 / 3, 0.75, 1.5, 1.8, 2.0, 3.0])
    def test_general_kappa_against_scipy(self, kappa):
        rho = np.logspace(-6.0, 8.0, 29)
        for l in (0, 1, 2, 3, 5):
            ref = _i0_quad_reference(rho, kappa) if l == 0 else _i0_beta_reference(rho, l, kappa)
            assert np.max(np.abs(i0_quadrature(rho, l, kappa) - ref) / ref) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        kappa=st.floats(min_value=0.2, max_value=3.0),
        l=st.integers(min_value=0, max_value=3),
        log_rho=st.lists(st.floats(min_value=-27.0, max_value=18.0), min_size=1, max_size=8),
    )
    def test_scalar_equals_array_and_never_decreases(self, kappa, l, log_rho):
        rho = np.sort(np.exp(log_rho))
        got = i0_quadrature(rho, l, kappa)
        assert np.array_equal([i0_quadrature(float(r), l, kappa) for r in rho], got)
        # radii a few ulp apart may round the other way (measured: at most
        # 1.3 ulp, on 19 of 60000 pairs of adjacent floats), so the
        # non-decrease is asserted up to 4 ulp
        assert np.all(np.diff(got) >= -4.0 * np.finfo(float).eps * got[1:])


class TestClosedForms:
    def test_zero_at_beta_zero(self):
        # rho = 1e-12, the radius floor, is beta = 1e-12
        for l in range(4):
            assert i0(1e-12, l, 0.5) == pytest.approx(0.0, abs=1e-13)
            assert i0_closed_one(1e-12, l) == pytest.approx(0.0, abs=1e-15)

    def test_l0_kappa_one_is_tan_minus_beta(self):
        # tan(beta) - beta with beta = arctan(rho)
        rho = math.tan(0.9)
        assert i0_closed_one(rho, 0) == pytest.approx(rho - math.atan(rho), abs=1e-14)

    def test_half_at_pi_quarter_matches_quadrature(self):
        # rho = 1 is beta = pi/4
        got = i0(1.0, 0, 0.5)
        assert got == pytest.approx(I0_HALF, abs=1e-12)
        assert got == pytest.approx(i0_quadrature(1.0, 0, 0.5), abs=1e-10)

    def test_half_l1_matches_quadrature(self):
        rho = math.tan(1.2) ** 2
        assert i0(rho, 1, 0.5) == pytest.approx(
            i0_quadrature(rho, 1, 0.5), abs=1e-9
        )

    def test_one_l2_matches_quadrature(self):
        rho = math.tan(1.0)
        assert i0_closed_one(rho, 2) == pytest.approx(
            i0_quadrature(rho, 2, 1.0), abs=1e-10
        )

    @pytest.mark.parametrize("l", range(6))
    def test_oracle_equivalence_grid(self, l):
        # relative: on this grid I0 at kappa = 1/2 spans 7.5e-41 to 43
        rhos = np.logspace(-3.0, math.log10(50.0), 50)
        assert np.max(np.abs(i0(rhos, l, 0.5) / i0_quadrature(rhos, l, 0.5) - 1.0)) < 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason="the FOUND line on i0_closed_one in CHANGES.md: the kappa = 1 closed "
        "form cancels at small rho (relative error 3.6e-4 at l = 1 up to 6.9e17 at "
        "l = 5 on this grid), where _i0_series stays within 1.9e-14",
    )
    def test_kappa_one_relative_to_the_quadrature(self):
        rhos = np.logspace(-3.0, math.log10(50.0), 50)
        for l in range(1, 6):
            ref = i0_quadrature(rhos, l, 1.0)
            assert np.max(np.abs(i0(rhos, l, 1.0) / ref - 1.0)) < 1e-12

    @pytest.mark.parametrize("l", range(6))
    def test_kappa_one_where_beta_rounds_to_pi_half(self, l):
        # arctan(rho) rounds to pi/2 from about 9e15; the closed form takes
        # every radius to the largest float.  The reference is exact.py's 40
        # digits of B_x(a, b) / 2 through its complement (rho - arctan(rho)
        # at l = 0).  The beta series agrees.
        rhos = np.array([1e3, 1e6, 1e10, 1e14, 5e15, 1e17, 1e100, 1e300])
        got = i0(rhos, l, 1.0)
        want = [float(exact.exact(r, l, 1.0, ("i0",))["i0"][0]) for r in rhos]
        assert np.max(np.abs(got / want - 1.0)) < 1e-14
        assert np.max(np.abs(got / _i0_series(rhos, l, 1.0) - 1.0)) < 1e-14
        assert np.isfinite(i0(np.finfo(float).max, l, 1.0))

    def test_domain_errors(self):
        with pytest.raises(ValueError, match=r"rho must be >= 1e-12, got rho = -0.1$"):
            i0_closed_one(-0.1, 0)
        with pytest.raises(ValueError, match=r"rho must be >= 1e-12, got rho = 0.0$"):
            i0([1.0, 0.0], 0, 0.5)
        with pytest.raises(ValueError, match=r"rho must be >= 1e-12, got rho = nan$"):
            i0(math.nan, 1, 0.7)
        with pytest.raises(ValueError, match=r"kappa must be positive, got kappa = -0.5$"):
            i0_quadrature(1.0, 0, -0.5)


    # the closed form at kappa = 1, the terminating sum at kappa = 1/2 and
    # the beta series at 0.7, for i0 and the oracle alike
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 0.7])
    @pytest.mark.parametrize("l", [-1, 1.5, math.nan])
    @pytest.mark.parametrize("evaluate", [i0, i0_quadrature], ids=["i0", "i0_quadrature"])
    def test_l_must_be_a_non_negative_integer(self, evaluate, l, kappa):
        message = f"^l must be a non-negative integer, got l = {l:g}$"
        with pytest.raises(ValueError, match=message):
            evaluate(1.0, l, kappa)
        with pytest.raises(ValueError, match=message):
            DoParams(kappa, l, 3)

    def test_sector_l_checked_one_by_one(self):
        with pytest.raises(ValueError, match=r"^l must be a non-negative integer, got l = 2.5$"):
            i0_quadrature(1.0, np.array([0, 1, 2.5]), np.array([[1.0], [0.5]]))
        with pytest.raises(ValueError, match=r"^kappa must be positive, got kappa = 0$"):
            i0_quadrature(1.0, np.array([0, 1]), np.array([[1.0], [0.0]]))


class TestRoute:
    """i0 is the one place the route to I0 is chosen."""

    # the closed form at kappa = 1; at kappa = 1/2 the series at l = 0 and the
    # terminating sum of b = 2l - 1 terms from l = 1 on; the series at 0.7
    @pytest.mark.parametrize(
        "kappa,route",
        [
            (1.0, lambda r, l: i0_closed_one(r, l)),
            (0.5, lambda r, l: _i0_finite(r, 2 * l + 3.0, 2 * l - 1, 0.5) if l
             else _i0_series(r, 0, 0.5)),
            (0.7, lambda r, l: _i0_series(r, l, 0.7)),
        ],
        ids=["closed-one", "beta-half", "beta"],
    )
    @pytest.mark.parametrize("rho", [1.7, np.logspace(-2.0, 2.0, 9)], ids=["scalar", "array"])
    def test_route_is_bit_for_bit(self, kappa, route, rho):
        for l in (0, 1, 3):
            got, want = i0(rho, l, kappa), route(_as_rho(rho), l)
            assert type(got) is type(want)
            np.testing.assert_array_equal(got, want)

    def test_physical_kappas_agree_with_the_quadrature(self):
        for kappa in (0.5, 1.0):
            assert i0(1.7, 1, kappa) == pytest.approx(i0_quadrature(1.7, 1, kappa), abs=1e-10)

    def test_series_at_other_kappa_agrees_with_the_quadrature(self):
        # the beta series, not the quadrature, is the route at kappa = 2;
        # the oracle agrees with it
        assert i0(1.3, 2, 2.0) == pytest.approx(i0_quadrature(1.3, 2, 2.0), rel=1e-12)

    @pytest.mark.parametrize("l,kappa", [(1, 0.5), (5, 0.5), (1, 0.25), (2, 1.5)])
    def test_integer_b_sums_no_series(self, monkeypatch, l, kappa):
        # b = (2l-1)/2 kappa is a positive integer: the terminating sum
        # builds no power series and runs no Horner loop
        def refuse(*args, **kwargs):
            raise AssertionError("the power series ran on an integer-b sector")

        monkeypatch.setattr(isospectral, "_series", refuse)
        monkeypatch.setattr(isospectral, "_horner", refuse)
        rho = np.logspace(-3.0, 3.0, 7)
        assert np.all(np.isfinite(i0(rho, l, kappa)))
        assert np.isfinite(i0(1.7, l, kappa))

    def test_i0_vanishes_at_origin_and_grows(self):
        g = np.linspace(0.05, 6.0, 40)
        for kappa in (0.5, 1.0, 2.0):
            vals = i0(g, 1, kappa)
            assert vals[0] < 1e-4
            assert np.all(np.diff(vals) > 0)

    def test_nan_kappa_is_refused(self):
        with pytest.raises(ValueError, match=r"kappa must be positive, got kappa = nan$"):
            i0(1.0, 0, math.nan)


class TestOnePlace:
    """Read from the source: one function picks the I0 route, one evaluates f and I0, one f'.

    A function owns a callee when no other code of isospectral.py names it;
    the oracle i0_quadrature integrates _f_squared, so it names neither.
    """

    OWNERS = {
        "_i0_finite": "i0", "_i0_series": "i0", "i0_closed_one": "i0",
        "radial_factor_f": "_family_values", "radial_factor_df": "_family_terms",
        "i0": "_family_values",
    }

    def test_each_callee_is_named_by_its_owner_alone(self):
        tree = ast.parse(Path(isospectral.__file__).read_text())
        namers = collections.defaultdict(set)
        for top in tree.body:
            owner = top.name if isinstance(top, ast.FunctionDef) else "<module>"
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    namers[node.id].add(owner)
        assert {name: namers[name] for name in self.OWNERS} == {
            name: {owner} for name, owner in self.OWNERS.items()
        }


# Every (l, kappa) pair of the quadrature-kappa benchmark workload (l = 0 at
# the ends and inside of its kappa range), the l = 0 log terms (kappa = 1/4,
# 1/6), b < -1 (kappa = 0.3), kappa just past the poles at 1/2m, the small
# kappa where the switch moves off x = 1/2, and the terminating sum at
# kappa = 1/2 and at b = 1 with kappa > 1
BETA_PAIRS = [
    (0, 0.3), (0, 0.7), (0, 1.8), (0, 3.0),
    (1, 1 / 3), (1, 0.25), (2, 2 / 3), (2, 0.4), (2, 2.0), (3, 0.75), (3, 1.5),
    (0, 0.25), (0, 1 / 6), (0, 0.5 + 1e-9), (0, 0.25 + 1e-7), (0, 0.1), (1, 0.1),
    (2, 0.5), (5, 0.5), (2, 1.5),
]
BETA_RHO = np.logspace(-6.0, 8.0, 57)


@st.composite
def nodeless_pairs(draw):
    """(l, kappa) with integral 1 + l/kappa and kappa in [1/4, 4]."""
    l = draw(st.integers(min_value=0, max_value=5))
    if l == 0:
        return 0, draw(st.floats(min_value=0.25, max_value=4.0))
    return l, l / draw(st.integers(min_value=math.ceil(l / 4), max_value=4 * l))


@st.composite
def small_kappa_pairs(draw):
    """(l, kappa) with l >= 1 and kappa = l/k below 1/4 (k from 4l+1 to 20l)."""
    l = draw(st.integers(min_value=1, max_value=5))
    return l, l / draw(st.integers(min_value=4 * l + 1, max_value=20 * l))


def _independent_i0(rho, l, kappa):
    """scipy betainc * beta at l >= 1; the quadrature oracle at l = 0, where b < 0."""
    return i0_quadrature(rho, 0, kappa) if l == 0 else _i0_beta_reference(rho, l, kappa)


class TestBetaSeries:
    """The route at every kappa but 1, against references that share none of its code."""

    @pytest.mark.parametrize("l,kappa", BETA_PAIRS)
    def test_against_independent_references(self, l, kappa):
        got = i0(BETA_RHO, l, kappa)
        ref = _independent_i0(BETA_RHO, l, kappa)
        assert np.max(np.abs(got - ref) / ref) < 1e-12

    @pytest.mark.parametrize("l,kappa", BETA_PAIRS)
    def test_scalar_equals_array(self, l, kappa):
        got = i0(BETA_RHO, l, kappa)
        assert np.array_equal([i0(float(r), l, kappa) for r in BETA_RHO], got)

    @settings(max_examples=60, deadline=None)
    @given(
        pair=nodeless_pairs(),
        log_rho=st.lists(st.floats(min_value=-14.0, max_value=18.0), min_size=1, max_size=8),
    )
    def test_relative_accuracy_property(self, pair, log_rho):
        l, kappa = pair
        rho = np.exp(log_rho)
        ref = _independent_i0(rho, l, kappa)
        # kappa = 1 is drawn too: there i0 takes the closed form, and the series is held
        got = _i0_series(_as_rho(rho), l, kappa) if kappa == 1.0 else i0(rho, l, kappa)
        assert np.max(np.abs(got - ref) / ref) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        pair=small_kappa_pairs(),
        log_rho=st.lists(st.floats(min_value=-7.0, max_value=7.0), min_size=1, max_size=8),
    )
    def test_relative_accuracy_below_a_quarter(self, pair, log_rho):
        # scipy's betainc is itself off by up to 3.8e-13 at these a and b
        # (measured against the quadrature), so the quadrature is the reference
        l, kappa = pair
        rho = np.exp(log_rho)
        ref = i0_quadrature(rho, l, kappa)
        assert np.max(np.abs(i0(rho, l, kappa) / ref - 1.0)) < 1e-12

    @pytest.mark.parametrize("l,kappa", [(0, 0.7), (0, 0.3), (0, 3.0), (2, 2.0), (3, 1.5)])
    def test_finite_to_the_top_of_the_float_range(self, l, kappa):
        # I0 grows like rho at l = 0 and tends to B(a, b) / 2 kappa at l >= 1
        got = i0(np.array([1e-12, 1e100, 1e200, 1e307]), l, kappa)
        assert np.all(np.isfinite(got)) and np.all(np.diff(got) >= 0)
        if l == 0:
            assert got[-1] == pytest.approx(1e307, rel=1e-12)

    def test_largest_float_past_one(self):
        # at l = 0 above the switch y^b is rho (1 + rho^-2k)^(1/2k), a product
        # in which nothing overflows at the largest float; it reads the 40
        # digits rounded to a float
        rho = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = i0(rho, 0, 13.6)
        assert got == float(exact.exact(rho, 0, 13.6, ("i0",))["i0"][0])

    @pytest.mark.parametrize("l,kappa", [s for s in exact.SECTORS if s[1] != 1.0])
    def test_against_40_digits_over_the_sweep(self, l, kappa):
        # every route but kappa = 1 from RHO_MIN to the largest float; the
        # worst is 2.98e-14 at (3, 3/49), rho = 3e-11.  With y^b as
        # exp(b ln y) at l = 0, I0 lost 1.45e-13 at (0, 0.7), rho = 1.7e308,
        # and 1.04e-13 at (0, 13.6), rho = 1e307.  The kappa = 1 closed form
        # cancels at small rho (ROADMAP item 3(b)), so it is left out here.
        rho = exact.sweep(150)
        want = [float(exact.exact(float(r), l, kappa, ("i0",))["i0"][0]) for r in rho]
        assert np.max(np.abs(i0(rho, l, kappa) / want - 1.0)) < 3e-14

    @pytest.mark.parametrize("l,kappa", [(1, 0.01), (3, 0.01)])
    def test_small_kappa_above_l_zero(self, l, kappa):
        # the switch of the series sits at the mode (a+1)/(a+b+2) of the
        # beta density here; b = 50 and 250 are integers, so i0 takes
        # the terminating sum, and the series is held to the same bound
        ref = i0_quadrature(BETA_RHO, l, kappa)
        for got in (i0(BETA_RHO, l, kappa), _i0_series(BETA_RHO, l, kappa)):
            assert np.max(np.abs(got - ref) / got) < 1e-12

    def test_series_below_a_quarter(self):
        # b = 245/6 is not an integer, so i0 takes the series here; with the
        # complement's cancellation bound of 1e3 it lost 9.7e-12 near rho = 1.17
        rho = np.logspace(-3.0, math.log10(50.0), 200)
        ref = i0_quadrature(rho, 3, 3 / 49)
        assert np.max(np.abs(i0(rho, 3, 3 / 49) / ref - 1.0)) < 1e-12

    @pytest.mark.parametrize("l,kappa", [(10, 0.001), (20, 0.005)])
    def test_large_a_and_b(self, l, kappa):
        # f^2 < 1e-300 on every float radius, so I0 is 0 in floats; a switch
        # nearer x = 1 than the mode made the x series overflow and grow
        # without end here
        assert np.all(i0(BETA_RHO, l, kappa) == 0.0)

    @pytest.mark.parametrize("u,v,bound", [(1.0, 1.0, 1.0), (math.nan, math.inf, 0.5)])
    def test_series_that_never_falls_is_refused(self, u, v, bound):
        with pytest.raises(ValueError, match=r"does not converge within 1048576 terms"):
            _series(u, v, bound)

    def test_small_kappa(self):
        # no float radius reaches the switch below kappa ~ 0.003, and every
        # radius takes the x series
        rho = np.logspace(-3.0, 10.0, 7)
        got = i0(rho, 0, 1e-3)
        assert np.max(np.abs(got - i0_quadrature(rho, 0, 1e-3)) / got) < 1e-12
        assert np.isfinite(i0(1e300, 0, 1e-3))


class TestTerminatingSum:
    """i0 where b = (2l-1)/2 kappa is a positive integer: b positive terms."""

    @pytest.mark.parametrize("kappa", [0.5, 0.25, 1 / 6])
    @pytest.mark.parametrize("l", range(1, 6))
    def test_against_the_quadrature(self, l, kappa):
        rho = np.logspace(-3.0, math.log10(50.0), 50)
        got = i0(rho, l, kappa)
        assert np.max(np.abs(got / i0_quadrature(rho, l, kappa) - 1.0)) < 1e-13

    # the series is within 3.3e-14 of the quadrature on logspace(1e-3, 50)
    # at these sectors (measured), so the two routes within 4e-14 of each other
    @pytest.mark.parametrize("l,kappa", [(1, 0.5), (2, 0.5), (3, 0.5), (4, 0.5), (5, 0.5), (2, 1.5)])
    def test_against_the_series(self, l, kappa):
        got = i0(BETA_RHO, l, kappa)
        assert np.max(np.abs(got / _i0_series(BETA_RHO, l, kappa) - 1.0)) < 4e-14

    @pytest.mark.parametrize("l,kappa", [(3, 0.5), (2, 1.5)])
    def test_tends_to_the_complete_beta_function(self, l, kappa):
        # at (2, 1.5), b = 1 and rho^3 overflows past 5.6e102: the radii
        # past 1 take rho^-2k
        a, b = (2 * l + 3) / (2 * kappa), (2 * l - 1) / (2 * kappa)
        got = i0(np.array([1e100, 1e200, 1e307]), l, kappa)
        assert np.all(np.isfinite(got))
        assert got == pytest.approx(special.beta(a, b) / (2 * kappa), rel=1e-14)


def _exact_i0(s, l, m):
    """I0 at kappa = 1/2m and l >= 1, exact at rho = s^m for the float s, as a Fraction.

    With t = rho^(1/m), f^2 drho = m t^n (1+t)^-p dt, n = m(2l+3) - 1 and
    p = 2m(2l+1).  With u = 1 + t and (u-1)^n expanded,
    I0 = m sum_j C(n, j) (-1)^(n-j) (u^q - 1) / q, q = j + 1 - p, at u = 1 + s.
    q runs from 1 - p to m(1-2l) and is never 0 at l >= 1 (the integrand has
    no u^-1 term), so I0 is a rational function of s.
    """
    u = 1 + Fraction(s)
    n, p = m * (2 * l + 3) - 1, 2 * m * (2 * l + 1)
    return m * sum(
        math.comb(n, j) * (-1) ** (n - j) * (u ** (j + 1 - p) - 1) / (j + 1 - p)
        for j in range(n + 1)
    )


class TestExactHalf:
    """i0 (the terminating sum) and its oracle against I0 at kappa = 1/2m in exact arithmetic.

    The radii are rho = s^m near logspace(1e-3, 1e3, 40), with s rounded to
    11 significant bits so that s^m is an exact float.
    """

    # measured here at l = 1..5 (i0, i0_quadrature): at most 2.0e-15 and
    # 3.6e-15 at kappa = 1/2, 4.6e-15 and 4.4e-15 at kappa = 1/4, 9.1e-15
    # and 6.0e-15 at kappa = 1/6
    BUDGET = {1: 1e-14, 2: 1e-14, 3: 2e-14}
    CASES = [(evaluate, l, m) for m in BUDGET for l in range(1, 6)
             for evaluate in (i0, i0_quadrature)]

    # kappa = 1/2 (m = 1) keeps the ids it had before kappa = 1/4 and 1/6 joined it
    @pytest.mark.parametrize(
        "evaluate,l,m",
        CASES,
        ids=[f"{e.__name__}-{l}" + (f"-m{m}" if m > 1 else "") for e, l, m in CASES],
    )
    def test_relative_error_within_budget(self, evaluate, l, m):
        mantissa, exponent = np.frexp(np.logspace(-3.0, 3.0, 40) ** (1.0 / m))
        s = np.ldexp(np.round(np.ldexp(mantissa, 11)), exponent - 11)
        ref = np.array([float(_exact_i0(x, l, m)) for x in s.tolist()])
        got = evaluate(s**m, l, 0.5 / m)
        assert np.max(np.abs(got / ref - 1.0)) < self.BUDGET[m]


class TestGeneralRiccatiSolution:
    def test_value_at_unit_radius(self):
        params = DoParams.nodeless(1.0, 0, 1.0)
        assert v_gen(1.0, params) == pytest.approx(2.0 * (1.0 + I0_ONE), rel=1e-12)

    def test_large_lambda_dominance(self):
        params = DoParams.nodeless(1.0, 1, 1e9)
        r = 0.8
        f2 = (r**2 / (1 + r**2) ** 1.5) ** 2
        assert v_gen(r, params) == pytest.approx(1e9 / f2, rel=1e-8)

    def test_positive_everywhere(self):
        params = DoParams.nodeless(0.5, 1, 0.5)
        g = np.linspace(0.05, 10.0, 50)
        assert np.all(np.asarray(v_gen(g, params)) > 0)

    def test_ode_residual_pointwise(self):
        params = DoParams.nodeless(1.0, 1, 10.0)
        r = 0.5
        dv = derivative(lambda s: v_gen(s, params), r, h0=0.25 * r)
        res = -dv + 2.0 * superpotential_w(r, 1, 1.0) * v_gen(r, params) + 1.0
        assert abs(res) < 1e-6


class TestGeneralSuperpotential:
    def test_large_lambda_collapse(self):
        params = DoParams.nodeless(1.0, 1, 1e9)
        for r in (0.3, 1.0, 4.0):
            assert abs(
                w_gen(r, params) - superpotential_w(r, 1, 1.0)
            ) < 1e-8

    def test_frozen_value(self):
        params = DoParams.nodeless(1.0, 0, 1.0)
        expected = -0.5 + 0.5 / (1.0 + I0_ONE)  # W + f^2/(I0 + lam)
        assert expected == pytest.approx(-0.088342463404645, abs=1e-14)
        assert w_gen(1.0, params) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.5, 1.0])
    def test_algebraic_identity_with_v(self, kappa):
        params = DoParams.nodeless(kappa, 2, 0.7)
        for r in (0.2, 1.1, 5.0):
            lhs = w_gen(r, params)
            rhs = 1.0 / v_gen(r, params) + superpotential_w(r, 2, kappa)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@st.composite
def nodeless_sectors(draw):
    """(kappa, l) with 1 + l/kappa a positive integer: every I0 route."""
    l = draw(st.integers(min_value=0, max_value=3))
    if l == 0:
        kappa = draw(st.sampled_from([0.5, 1.0]) | st.floats(min_value=0.2, max_value=3.0))
    else:
        kappa = l / draw(st.integers(min_value=1, max_value=3 * l))
    DoParams.nodeless(kappa, l)
    return kappa, l


class TestSectorBroadcast:
    """i0_quadrature over a grid of sectors: each sector is its scalar call."""

    @settings(max_examples=40, deadline=None)
    @given(
        sectors=st.lists(nodeless_sectors(), min_size=1, max_size=4),
        log_rho=st.lists(st.floats(min_value=-4.0, max_value=3.0), min_size=1, max_size=6),
        shape=st.sampled_from(["row", "column"]),
    )
    def test_sector_array_equals_scalar_calls(self, sectors, log_rho, shape):
        kappas, ls = (np.array(column) for column in zip(*sectors))
        if shape == "column":
            kappas, ls = kappas[:, None], ls[:, None]
        r = 10.0 ** np.array(log_rho)
        got = i0_quadrature(r, ls, kappas)
        assert got.shape == kappas.shape + r.shape
        for j, (kappa, l) in enumerate(sectors):
            assert np.array_equal(got.reshape(len(sectors), r.size)[j], i0_quadrature(r, l, kappa))

    def test_scalar_sector_and_radius_give_a_float(self):
        got = i0_quadrature(1.0, 0, 1.0)
        assert isinstance(got, float) and np.ndim(got) == 0
        # an order grid (kappa on rows, l on columns) keeps both axes
        assert i0_quadrature([0.5, 1.0, 2.0], np.arange(3), np.array([[1.0], [0.5]])).shape == (2, 3, 3)


class TestLambdaBroadcast:
    """A lam array shares one f, f', I0 and W; each row is the scalar-lam call."""

    @settings(max_examples=60, deadline=None)
    @given(
        sector=nodeless_sectors(),
        log_lam=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=4),
        log_rho=st.lists(st.floats(min_value=-4.0, max_value=3.0), min_size=1, max_size=8),
    )
    def test_lambda_array_equals_scalar_calls(self, sector, log_lam, log_rho):
        kappa, l = sector
        r = 10.0 ** np.array(log_rho)
        lams = 10.0 ** np.array(log_lam)
        shape = (lams.size, r.size)
        batched = _family_terms(r, l, kappa, lams[:, None])
        for j, lam in enumerate(lams):
            for got, want in zip(batched, _family_terms(r, l, kappa, float(lam))):
                assert np.array_equal(np.broadcast_to(got, shape)[j], want)


class TestBosonicFamily:
    def test_large_lambda_recovers_original(self):
        params = DoParams.nodeless(1.0, 0, 1e9)
        for r in (0.2, 1.0, 3.0):
            assert abs(family_columns(r, params)[1] - u_minus(r, 0, 1.0)) < 1e-8

    def test_frozen_regression_value(self):
        # assembled from independently verified components:
        # -3/4 - 4 f f'/(2 - pi/4) + 2 f^4/(2 - pi/4)^2 at rho = 1
        params = DoParams.nodeless(1.0, 0, 1.0)
        f, df = 2**-0.5, 2**-1.5
        expected = -0.75 - 4 * f * df / (1 + I0_ONE) + 2 * f**4 / (1 + I0_ONE) ** 2
        assert expected == pytest.approx(-1.234391218319198, abs=1e-14)
        assert family_columns(1.0, params)[1] == pytest.approx(expected, rel=1e-13)

    def test_centrifugal_dominates_at_origin(self):
        params = DoParams.nodeless(1.0, 2, 1.0)
        r = 1e-3
        assert family_columns(r, params)[1] == pytest.approx(6.0 / r**2, rel=1e-5)


class TestDampedRadialFactor:
    def test_pure_damping_limit(self):
        lam = 1e9
        params = DoParams.nodeless(1.0, 1, lam)
        for r in (0.4, 1.0, 2.5):
            f = r**2 / (1 + r**2) ** 1.5
            assert family_columns(r, params)[3] == pytest.approx(f / lam, rel=1e-8)

    def test_frozen_value(self):
        params = DoParams.nodeless(1.0, 0, 1.0)
        expected = (2**-0.5) / (1.0 + I0_ONE)
        assert expected == pytest.approx(0.582171671306249, abs=1e-14)
        assert family_columns(1.0, params)[3] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("kappa,rho", [(13.6, 1e307), (0.7, 1.7e308)])
    def test_at_the_top_of_the_float_range(self, kappa, rho):
        # f_bos carried the l = 0 loss of I0 here: 1.0e-13 and 1.44e-13
        # when y^b was exp(b ln y).  (I0+lam)^2 of U_bos overflows here.
        with np.errstate(over="ignore"):
            got = family_columns(rho, DoParams.nodeless(kappa, 0, 1.0))[3]
        assert abs(got / float(exact.family(rho, 0, kappa, 1.0)["f_bos"][0]) - 1.0) < 1e-14

    def test_positive_and_nodeless(self):
        params = DoParams.nodeless(0.5, 1, 0.3)
        g = np.linspace(0.05, 20.0, 80)
        assert np.all(np.asarray(family_columns(g, params)[3]) > 0)
