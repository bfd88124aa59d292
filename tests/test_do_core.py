import math

import numpy as np
import pytest
from conftest import zero_mode_residual

from susy_fisheye.do_core import (
    DoParams,
    Profile,
    coupling_w,
    degeneracy,
    nodeless_coupling,
    potential_v,
    radial_factor_df,
    radial_factor_f,
    radial_wavefunction,
    superpotential_w,
    u_minus,
    u_plus,
    xi_of_rho,
)
from susy_fisheye.fullline import halfline_superpartner
from susy_fisheye.numerics import derivative


class TestDoParams:
    def test_nodeless_construction(self):
        p = DoParams.nodeless(1.0, 2)
        assert (p.N, p.n, p.degree, p.is_nodeless) == (3, 3, 0, True)
        p = DoParams.nodeless(0.5, 2)
        assert p.N == 5 and p.degree == 0

    def test_rejects_non_integral_degree(self):
        with pytest.raises(ValueError):
            DoParams(kappa=0.75, l=1, N=2)  # degree = 1 - 4/3
        with pytest.raises(ValueError):
            DoParams.nodeless(0.75, 1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DoParams(kappa=-1.0, l=0, N=1)
        with pytest.raises(ValueError):
            DoParams(kappa=1.0, l=-1, N=1)
        with pytest.raises(ValueError):
            DoParams(kappa=1.0, l=0, N=0)
        with pytest.raises(ValueError):
            DoParams(kappa=1.0, l=0, N=1, lam=0.0)

    def test_excited_sector_allowed(self):
        p = DoParams(kappa=1.0, l=0, N=3)
        assert p.degree == 2 and not p.is_nodeless


class TestProfile:
    def test_valid(self):
        p = Profile(np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0]))
        assert len(p) == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            Profile(np.array([0.1]), np.array([1.0]))
        with pytest.raises(ValueError):
            Profile(np.array([0.1, 0.1]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Profile(np.array([0.1, 0.2]), np.array([1.0, 2.0, 3.0]))


class TestCoupling:
    @pytest.mark.parametrize(
        "N,kappa,expected", [(1, 1.0, 3.0), (1, 0.5, 2.0), (2, 1.0, 15.0)]
    )
    def test_values(self, N, kappa, expected):
        assert coupling_w(N, kappa) == pytest.approx(expected, abs=1e-13)

    def test_integer_identity(self):
        # (2l+1)(2l+3) at kappa = 1, N = l + 1, exactly
        for l in range(11):
            assert coupling_w(l + 1, 1.0) == (2 * l + 1) * (2 * l + 3)

    def test_nodeless_coupling_consistency(self):
        for kappa in (0.5, 1.0):
            for l in range(4):
                p = DoParams.nodeless(kappa, l)
                assert nodeless_coupling(l, kappa) == pytest.approx(p.w, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            coupling_w(0, 1.0)
        with pytest.raises(ValueError):
            coupling_w(1, -0.5)


class TestPotential:
    def test_values(self):
        assert potential_v(1.0, 1.0, 3.0) == pytest.approx(-0.75, abs=1e-14)
        assert potential_v(1.0, 0.5, 2.0) == pytest.approx(-0.5, abs=1e-14)

    def test_decay_at_infinity(self):
        assert abs(potential_v(1e6, 1.0, 3.0)) < 1e-11

    def test_domain_error(self):
        with pytest.raises(ValueError):
            potential_v(0.0, 1.0, 3.0)


class TestXi:
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_symmetry_point(self, kappa):
        assert xi_of_rho(1.0, kappa) == pytest.approx(0.0, abs=1e-15)

    def test_origin_limit(self):
        assert xi_of_rho(1e-8, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_value(self):
        assert xi_of_rho(2.0, 1.0) == pytest.approx(-0.6, abs=1e-14)

    def test_monotone_decreasing(self):
        g = np.linspace(0.05, 5.0, 60)
        vals = np.asarray(xi_of_rho(g, 1.0))
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

    def test_excited_sector_uses_polynomial(self):
        # degree 1, order (2l+1)/(2k) + 1/2 = 2 at kappa = 1, l = 1, N = 3
        p = DoParams(kappa=1.0, l=1, N=3)
        rho = 0.7
        xi = (1 - rho**2) / (1 + rho**2)
        expected = rho * (1 + rho**2) ** -1.5 * (2 * 2.0 * xi)
        assert radial_wavefunction(rho, p) == pytest.approx(expected, rel=1e-13)


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

    def test_log_derivative_identity(self):
        # W = -f'/f with f' from the Richardson finite-difference oracle
        rho = np.linspace(0.05, 20.0, 50)
        for kappa in (0.5, 1.0):
            for l in (0, 1, 2, 3):
                fd = derivative(lambda s: radial_factor_f(s, l, kappa), rho, h0=0.2 * rho)
                res = superpotential_w(rho, l, kappa) + fd / radial_factor_f(rho, l, kappa)
                assert np.max(np.abs(res)) < 1e-8


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
        assert abs(u_plus(1e6, 0, 1.0)) < 1e-11

    def test_partner_sum_difference(self):
        rho = np.linspace(0.1, 10.0, 25)
        for kappa in (0.5, 1.0):
            for l in (0, 1, 2):
                dw = derivative(lambda s: superpotential_w(s, l, kappa), rho, h0=0.2 * rho)
                gap = u_plus(rho, l, kappa) - u_minus(rho, l, kappa) - 2.0 * dw
                assert np.max(np.abs(gap)) < 1e-6

    def test_two_superpartner_routes_differ(self):
        # the direct half-line partner shifts the centrifugal index, the
        # full-line route keeps it: they are distinct functions and the
        # measured gap at rho = 1, l = 0 is exactly 1
        direct = u_plus(1.0, 0, 1.0)
        via_full_line = halfline_superpartner(1.0, 0)
        assert direct == pytest.approx(1.25, abs=1e-14)
        assert via_full_line == pytest.approx(0.25, abs=1e-14)
        gap = 2 * (0 + 1) / 1.0**2 - 2 * (2 * 0 + 1) / (1.0 + 1.0**2)
        assert direct - via_full_line == pytest.approx(gap, abs=1e-13)


class TestZeroMode:
    @pytest.mark.parametrize("kappa", [0.5, 1.0])
    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_numerov_reproduces_radial_factor(self, kappa, l):
        assert zero_mode_residual(l, kappa) < 1e-6


def test_degeneracy():
    assert degeneracy(1) == 1
    assert degeneracy(2) == 4
    assert degeneracy(5) == 25
    with pytest.raises(ValueError):
        degeneracy(0)
