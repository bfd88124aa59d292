import math
import warnings

import numpy as np
import pytest
from conftest import load_script

from susy_fisheye.do_core import (
    DoParams,
    coupling_w,
    nodeless_coupling,
    potential_v,
    radial_factor_df,
    radial_factor_f,
    radial_wavefunction,
    superpotential_w,
    u_minus,
    u_plus,
)
from susy_fisheye.isospectral import i0_closed_one
from susy_fisheye.numerics import derivative

exact = load_script("exact")


class TestDoParams:
    def test_nodeless_construction(self):
        p = DoParams.nodeless(1.0, 2)
        assert (p.N, p.degree) == (3, 0)
        p = DoParams.nodeless(0.5, 2)
        assert p.N == 5 and p.degree == 0

    def test_rejects_non_integral_degree(self):
        with pytest.raises(ValueError):
            DoParams(kappa=0.75, l=1, N=2)  # degree = 1 - 4/3
        with pytest.raises(
            ValueError,
            match=r"^nodeless sector needs integral 1 \+ l/kappa, "
            r"got l = 1, kappa = 0.75 \(1 \+ l/kappa = 2.33\)$",
        ):
            DoParams.nodeless(0.75, 1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match=r"kappa must be positive, got kappa = -1$"):
            DoParams(kappa=-1.0, l=0, N=1)
        with pytest.raises(ValueError, match=r"l must be a non-negative integer, got l = -1$"):
            DoParams(kappa=1.0, l=-1, N=1)
        with pytest.raises(ValueError, match=r"N must be a positive integer, got N = 0$"):
            DoParams(kappa=1.0, l=0, N=0)
        with pytest.raises(ValueError, match=r"lam must be positive, got lam = 0$"):
            DoParams(kappa=1.0, l=0, N=1, lam=0.0)

    @pytest.mark.parametrize("field", ["kappa", "lam"])
    def test_rejects_nan(self, field):
        # a NaN fails every comparison, so the checks are written as not x > 0
        kwargs = {"kappa": 1.0, "l": 1, "lam": 1.0, field: math.nan}
        with pytest.raises(ValueError, match=rf"{field} must be positive, got {field} = nan$"):
            DoParams.nodeless(**kwargs)

    def test_infinite_lambda_is_refused(self):
        with pytest.raises(ValueError, match=r"^lam must be finite, got lam = inf$"):
            DoParams(kappa=1.0, l=0, N=1, lam=math.inf)
        with pytest.raises(ValueError, match=r"^lam must be finite, got lam = inf$"):
            DoParams.nodeless(1, 1, math.inf)

    def test_nan_lambda_family_is_refused(self):
        with pytest.raises(ValueError, match=r"got lam = nan$"):
            DoParams.nodeless(1.0, 1, math.nan)

    def test_excited_sector_allowed(self):
        p = DoParams(kappa=1.0, l=0, N=3)
        assert p.degree == 2


class TestCoupling:
    @pytest.mark.parametrize(
        "N,kappa,expected", [(1, 1.0, 3.0), (1, 0.5, 2.0), (2, 1.0, 15.0)]
    )
    def test_values(self, N, kappa, expected):
        assert coupling_w(N, kappa) == pytest.approx(expected, abs=1e-13)

    def test_nodeless_coupling_consistency(self):
        for kappa in (0.5, 1.0):
            for l in range(4):
                p = DoParams.nodeless(kappa, l)
                assert nodeless_coupling(l, kappa) == pytest.approx(p.w, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match=r"N must be a positive integer, got N = 0$"):
            coupling_w(0, 1.0)
        with pytest.raises(ValueError):
            coupling_w(1, -0.5)
        with pytest.raises(ValueError, match=r"kappa must be positive, got kappa = nan$"):
            coupling_w(1, math.nan)


# every evaluator that takes l or kappa refuses them out of their domain,
# with the message of DoParams and i0; each of these read a number or raised
# another error before
@pytest.mark.parametrize(
    "evaluate,args,message",
    [
        (radial_factor_f, (0.5, -1, 1.0), "l must be a non-negative integer, got l = -1"),
        (radial_factor_f, (0.5, 1, -1.0), "kappa must be positive, got kappa = -1"),
        (radial_factor_df, (0.5, 1, 0.0), "kappa must be positive, got kappa = 0"),
        (u_minus, (0.5, -1, 1.0), "l must be a non-negative integer, got l = -1"),
        (u_plus, (0.5, 2.5, 1.0), "l must be a non-negative integer, got l = 2.5"),
        (superpotential_w, (0.5, -3, 1.0), "l must be a non-negative integer, got l = -3"),
        (nodeless_coupling, (-1, 1.0), "l must be a non-negative integer, got l = -1"),
        (i0_closed_one, (0.5, 1.5), "l must be a non-negative integer, got l = 1.5"),
    ],
    ids=["f-l", "f-kappa", "df-kappa", "u_minus-l", "u_plus-l", "w-l", "coupling-l",
         "i0_closed_one-l"],
)
def test_out_of_domain_l_and_kappa_are_refused_by_name(evaluate, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        evaluate(*args)


class TestPotential:
    def test_values(self):
        assert potential_v(1.0, 1.0, 3.0) == pytest.approx(-0.75, abs=1e-14)
        assert potential_v(1.0, 0.5, 2.0) == pytest.approx(-0.5, abs=1e-14)

    def test_decay_at_infinity(self):
        assert abs(potential_v(1e6, 1.0, 3.0)) < 1e-11

    def test_domain_error(self):
        with pytest.raises(ValueError, match=r"rho must be >= 1e-12, got rho = 0.0$"):
            potential_v(0.0, 1.0, 3.0)
        with pytest.raises(ValueError, match=r"got rho = 1e-13$"):
            potential_v([1.0, 1e-13, -2.0], 1.0, 3.0)
        with pytest.raises(ValueError, match=r"kappa must be positive, got kappa = 0$"):
            potential_v(1.0, 0.0, 3.0)

    def test_nan_radius_is_refused(self):
        # NaN < RHO_MIN is false, so the radius check must not be written that way
        with pytest.raises(ValueError, match=r"rho must be >= 1e-12, got rho = nan$"):
            radial_factor_f(math.nan, 1, 1.0)
        with pytest.raises(ValueError, match=r"rho must be >= 1e-12, got rho = nan$"):
            u_minus([1.0, math.nan], 1, 1.0)


class TestXi:
    """The map xi = (1 - rho^(2 kappa)) / (1 + rho^(2 kappa)) inside radial_wavefunction.

    The degree-1 state at l = 0 is (1 + t)^(-e) C_1^q(xi) with e = 1/(2 kappa),
    t = rho^(2 kappa) and C_1^q(xi) = 2 q xi, q = e + 1/2, so R (1 + t)^e / (2 q)
    is xi.
    """

    @staticmethod
    def xi(rho, kappa):
        t = np.asarray(rho, dtype=float) ** (2.0 * kappa)
        e = 1.0 / (2.0 * kappa)
        return radial_wavefunction(rho, DoParams(kappa, 0, 2)) * (1.0 + t) ** e / (2.0 * e + 1.0)

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_symmetry_point(self, kappa):
        # the one radial node sits on the lens radius rho = 1 for every kappa
        assert self.xi(1.0, kappa) == pytest.approx(0.0, abs=1e-15)

    def test_origin_limit(self):
        assert self.xi(1e-8, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_value(self):
        assert self.xi(2.0, 1.0) == pytest.approx(-0.6, abs=1e-14)

    def test_monotone_decreasing(self):
        g = np.linspace(0.05, 5.0, 60)
        vals = np.asarray(self.xi(g, 1.0))
        assert np.all(np.diff(vals) < 0)
        assert np.all(np.abs(vals) < 1.0)


class TestRadialWavefunction:
    def test_nodeless_value(self):
        p = DoParams(kappa=1.0, l=0, N=1)
        assert radial_wavefunction(1.0, p) == pytest.approx(2**-0.5, abs=1e-14)

    def test_origin_regularity(self):
        for kappa, l in ((1.0, 1), (0.5, 2)):
            p = DoParams.nodeless(kappa, l)
            assert abs(radial_wavefunction(1e-8, p)) < 1e-7

    def test_nodeless_l1_value(self):
        # rho (1+rho^2)^(-3/2) at rho = 2; the Numerov zero mode confirms
        # the same profile through radial_factor_f = rho * R
        p = DoParams(kappa=1.0, l=1, N=2)
        expected = 2.0 * 5.0**-1.5
        assert radial_wavefunction(2.0, p) == pytest.approx(expected, rel=1e-14)
        assert radial_factor_f(2.0, 1, 1.0) == pytest.approx(2.0 * expected, rel=1e-14)

    def test_finite_where_rho_squared_overflows(self):
        # t = rho^2 is inf past 1.3e154, where (1 - t)/(1 + t) is NaN
        value = radial_wavefunction(1e200, DoParams(1.0, 1, 3))
        assert math.isfinite(value)

    def test_excited_sector_uses_polynomial(self):
        # degree 1, order (2l+1)/(2k) + 1/2 = 2 at kappa = 1, l = 1, N = 3
        p = DoParams(kappa=1.0, l=1, N=3)
        rho = 0.7
        xi = (1 - rho**2) / (1 + rho**2)
        expected = rho * (1 + rho**2) ** -1.5 * (2 * 2.0 * xi)
        assert radial_wavefunction(rho, p) == pytest.approx(expected, rel=1e-13)


# (rho, l, kappa) where rho^(2 kappa) or rho^(l+1) overflows
POWER_OVERFLOWS = [(1e250, 0, 0.7), (1e250, 1, 0.7), (1e80, 3, 0.5), (1e40, 1, 5.0)]
# (rho, l, kappa) where both powers are finite but the decay underflows
DECAY_UNDERFLOWS = [(1e60, 3, 0.5), (3e45, 3, 0.5), (1.5e107, 1, 1.0), (1e100, 2, 1.0),
                    (6.4e30, 1, 5.0)]


class TestRadialFactor:
    def test_values(self):
        assert radial_factor_f(1.0, 0, 1.0) == pytest.approx(2**-0.5, abs=1e-15)
        assert radial_factor_f(1.0, 1, 0.5) == pytest.approx(0.125, abs=1e-15)

    def test_vanishes_at_origin(self):
        for l in (0, 1, 3):
            assert radial_factor_f(1e-10, l, 1.0) < 1e-9

    def test_equals_rho_times_wavefunction(self):
        for kappa, l in ((1.0, 0), (1.0, 2), (0.5, 1)):
            p = DoParams.nodeless(kappa, l)
            for rho in (0.3, 1.0, 4.2):
                assert radial_factor_f(rho, l, kappa) == pytest.approx(
                    rho * radial_wavefunction(rho, p), rel=1e-13
                )

    @pytest.mark.parametrize("rho,l,kappa", POWER_OVERFLOWS)
    def test_finite_where_the_powers_overflow(self, rho, l, kappa):
        # rho^(2 kappa) or rho^(l+1) overflows; f and f' still take the
        # exact value, down to the subnormals (f' at 1e250 is -1e-500, -0.0)
        got = radial_factor_f(rho, l, kappa), radial_factor_df(rho, l, kappa)
        for value, (want, _) in zip(got, exact.exact(rho, l, kappa, ("f", "df")).values()):
            assert value == pytest.approx(float(want), rel=1e-14, abs=1e-322)
        # an array keeps its values at the radii where nothing overflows
        grid = np.array([0.5, 2.0, rho])
        for fn in (radial_factor_f, radial_factor_df):
            assert np.array_equal(fn(grid, l, kappa)[:2], fn(grid[:2], l, kappa))

    @pytest.mark.parametrize("rho,l,kappa", DECAY_UNDERFLOWS)
    def test_exact_where_the_decay_underflows(self, rho, l, kappa):
        # the powers are finite, but the decay (1 + t)^(-p) is 0 (at 1e60 and
        # 1e100) or a subnormal short of digits; at 6.4e30 f' also has
        # (2l+1) t overflow in its bracket.  Every value here is normal.
        got = radial_factor_f(rho, l, kappa), radial_factor_df(rho, l, kappa)
        for value, (want, _) in zip(got, exact.exact(rho, l, kappa, ("f", "df")).values()):
            assert value == pytest.approx(float(want), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("rho,l,kappa", POWER_OVERFLOWS + DECAY_UNDERFLOWS)
    def test_no_warning_for_a_right_value(self, rho, l, kappa):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            radial_factor_f(rho, l, kappa)
            radial_factor_df(rho, l, kappa)

    def test_direct_below_one_where_the_decay_underflows(self):
        # p = 3050 at l = 30, kappa = 0.01, so the decay underflows below
        # rho = 1 too, where the reflected rho^-30 would overflow (inf * 0);
        # f and f' are 1e-372 and less there, 0 as floats
        rho = np.array([1e-12, 1e-3, 0.5, 1.0])
        for fn in (radial_factor_f, radial_factor_df):
            assert np.array_equal(fn(rho, 30, 0.01), np.zeros(4))

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 5, 10])
    @pytest.mark.parametrize("kappa", [0.25, 0.5, 0.7, 1.0, 2.0, 5.0])
    def test_finite_from_the_floor_to_the_top(self, l, kappa):
        # one radius domain for every (kappa, l): RHO_MIN to the largest float
        rho = np.append(np.logspace(-12.0, 308.0, 161), np.finfo(float).max)
        for fn in (radial_factor_f, radial_factor_df):
            assert np.all(np.isfinite(fn(rho, l, kappa)))

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 5, 10])
    @pytest.mark.parametrize("kappa", [0.25, 0.5, 1.0, 2.0])
    def test_exact_from_the_floor_to_the_top(self, l, kappa):
        # every normal value within 1e-14 of 40 digits.  These kappa keep
        # p = (2l+1)/(2 kappa) a float: at 0.7 or 5 the direct form's
        # (1 + t)^(-p) carries the rounding of p, p ln(1 + t) eps, up to
        # 6.6e-14.  At l = 0 f' takes its bracket as 1/(1 + t), which
        # 1 - t/(1 + t) would cancel to 0 once t passes 2^53.
        rho = np.append(np.logspace(-12.0, 308.0, 33), np.finfo(float).max)
        got = radial_factor_f(rho, l, kappa), radial_factor_df(rho, l, kappa)
        values = [exact.exact(r, l, kappa, ("f", "df")) for r in rho]
        for value, name in zip(got, ("f", "df")):
            want = np.array([float(one[name][0]) for one in values])
            normal = np.abs(want) >= np.finfo(float).tiny
            assert np.all(np.abs(value[normal] / want[normal] - 1.0) < 1e-14)

    def test_analytic_derivative(self):
        rho = np.array([0.2, 1.0, 3.0])
        for kappa, l in ((1.0, 0), (1.0, 2), (0.5, 1)):
            fd = derivative(lambda s: radial_factor_f(s, l, kappa), rho, h0=0.1 * rho)
            assert radial_factor_df(rho, l, kappa) == pytest.approx(
                fd, rel=1e-9, abs=1e-12
            )


class TestSuperpotential:
    @pytest.mark.parametrize(
        "rho,l,kappa,expected",
        [(1.0, 0, 1.0, -0.5), (1.0, 1, 1.0, -0.5), (2.0, 0, 1.0, -0.1)],
    )
    def test_values(self, rho, l, kappa, expected):
        assert superpotential_w(rho, l, kappa) == pytest.approx(expected, abs=1e-14)


def sweep_values(rho, l, kappa):
    """{name: values} of the evaluators exact.exact references, R at degree 2."""
    nodeless = DoParams.nodeless(kappa, l)
    return {
        "v": potential_v(rho, kappa, nodeless_coupling(l, kappa)),
        "u_minus": u_minus(rho, l, kappa),
        "u_plus": u_plus(rho, l, kappa),
        "w": superpotential_w(rho, l, kappa),
        "f": radial_factor_f(rho, l, kappa),
        "df": radial_factor_df(rho, l, kappa),
        "wavefunction": radial_wavefunction(rho, DoParams(kappa, l, nodeless.N + 2)),
    }


class TestFiniteOnEveryRadius:
    """V, U+-, W, f, f' and the wavefunction on the one seeded sweep of exact.py."""

    @pytest.mark.parametrize("l,kappa", exact.SECTORS)
    def test_finite_with_no_warning(self, l, kappa):
        # rho^2 and rho^(2 kappa) overflow at the largest radii, so no
        # evaluator may form them
        rho = exact.sweep(150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [*sweep_values(rho, l, kappa).values(),
                      radial_wavefunction(rho, DoParams.nodeless(kappa, l))]
        for value in values:
            assert np.all(np.isfinite(value))

    @pytest.mark.parametrize("l,kappa", exact.SECTORS)
    def test_against_mpmath(self, l, kappa):
        # The error over the terms of each value (exact.py): V, U+- and W to
        # 1e-15, since U-, W and U+ have roots.  U+ also to 1e-14 relative
        # where |U+| >= 1e-2 of its terms: it changes sign at rho = 16 for
        # (1, 1/4), where no float evaluation keeps relative digits (4.3e-14
        # at 15.9 and 16.1), and 15 and 17 read 1.8e-15.  f, f' and R to
        # 1e-14, or 1e-13 where p = (2l+1)/(2 kappa) is not a float and the
        # direct form of f carries its rounding, p ln(1 + t) eps (4.1e-14 at
        # (3, 3/49), 2.1e-14 at (0, 0.7)).  1e-322 absorbs subnormal results.
        rho = exact.sweep(150)
        got = sweep_values(rho, l, kappa)
        factor = 1e-13 if exact.p_rounds(l, kappa) else 1e-14
        bounds = {"v": 1e-15, "u_minus": 1e-15, "u_plus": 1e-15, "w": 1e-15,
                  "f": factor, "df": factor, "wavefunction": factor}
        for i, r in enumerate(rho):
            for name, (value, terms) in exact.exact(float(r), l, kappa, tuple(got)).items():
                error = abs(float(got[name][i] - value))
                assert error <= bounds[name] * float(terms) + 1e-322, (name, r)
                if name == "u_plus" and abs(value) >= 1e-2 * terms:
                    assert error <= 1e-14 * float(abs(value)) + 1e-322, (name, r)

    def test_relative_digits_where_a_power_is_subnormal(self):
        # at 1e-12, rho^(2 kappa) is subnormal at kappa = 13.6 and rho^(l+1)
        # at l = 25, while V = -w rho^(2 kappa - 2) / (1+t)^2 and R = rho^l
        # (1+t)^(-(2l+1)/2) C_p^26(y - x) are normal floats
        assert potential_v(1e-12, 13.6, 28.2) == pytest.approx(
            -1.1226622209608837e-301, rel=1e-15, abs=0)
        assert u_minus(1e-12, 0, 13.6) == pytest.approx(
            -1.1226622209608837e-301, rel=1e-15, abs=0)
        assert radial_wavefunction(1e-12, DoParams.nodeless(1.0, 25)) == pytest.approx(
            1e-300, rel=1e-15, abs=0)
        # C_2^26(1) = 52 * 53 / 2
        assert radial_wavefunction([1e-12], DoParams(1.0, 25, 28))[0] == pytest.approx(
            1378e-300, rel=1e-15, abs=0)


class TestPartnerPotentials:
    def test_u_minus_values(self):
        assert u_minus(1.0, 0, 1.0) == pytest.approx(-0.75, abs=1e-14)
        assert u_minus(1.0, 1, 1.0) == pytest.approx(2.0 - 15.0 / 4.0, abs=1e-14)

    def test_u_minus_far_field_is_centrifugal(self):
        rho = 1e5
        for l in (1, 2):
            assert u_minus(rho, l, 1.0) == pytest.approx(
                l * (l + 1) / rho**2, rel=1e-8
            )

    def test_u_minus_equals_riccati_route(self):
        # oracle route: W^2 - W' with W' by finite differences
        rho = np.array([0.2, 0.9, 2.5, 7.0])
        for kappa in (0.5, 1.0):
            for l in (0, 1, 2):
                dw = derivative(lambda s: superpotential_w(s, l, kappa), rho, h0=0.1 * rho)
                expected = superpotential_w(rho, l, kappa) ** 2 - dw
                assert u_minus(rho, l, kappa) == pytest.approx(expected, rel=1e-8, abs=1e-8)

    def test_u_plus_riccati_route(self):
        rho = np.array([0.5, 1.0, 3.0])
        for kappa in (0.5, 1.0):
            for l in (0, 1, 2):
                dw = derivative(lambda s: superpotential_w(s, l, kappa), rho, h0=0.1 * rho)
                expected = dw + superpotential_w(rho, l, kappa) ** 2
                assert u_plus(rho, l, kappa) == pytest.approx(expected, rel=1e-8, abs=1e-8)

    def test_u_plus_decay(self):
        # U+ = 3 y (2y + x) / rho^2 at l = 1, kappa = 1; the sum U- + 2 W'
        # cancels to -1.479e-31 here
        assert u_plus(1e8, 1, 1.0) == pytest.approx(3.0e-32, rel=1e-15)

    def test_two_superpartner_routes_differ(self):
        # the direct half-line partner shifts the centrifugal index, the
        # full-line route keeps it: they are distinct functions and the
        # measured gap at rho = 1, l = 0 is exactly 1.  The full-line route,
        # l(l+1)/rho^2 - (2l+1)(2l-1)/(1+rho^2)^2 at kappa = 1, is 1/4 there.
        direct = u_plus(1.0, 0, 1.0)
        assert direct == pytest.approx(1.25, abs=1e-14)
        gap = 2 * (0 + 1) / 1.0**2 - 2 * (2 * 0 + 1) / (1.0 + 1.0**2)
        assert direct - 0.25 == pytest.approx(gap, abs=1e-13)
