import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susy_fisheye.do_core import radial_factor_f
from susy_fisheye.fullline import (
    aufbau_rm_potential,
    aufbau_spectrum,
    halfline_superpartner,
    halfline_superpotential,
    langer_rho,
    langer_wavefunction,
    langer_x,
    rescale_radius,
    rm_family_shift,
    rm_family_single,
    rm_potential,
    rm_spectrum,
    rm_superpotential,
)
from susy_fisheye.numerics import derivative, dvr_bound_states


class TestLangerMap:
    def test_fixed_points(self):
        assert langer_x(1.0) == 0.0
        assert langer_x(math.e) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("rho", [0.1, 1.0, 7.0])
    def test_round_trip(self, rho):
        assert langer_rho(langer_x(rho)) == pytest.approx(rho, rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(rho=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_round_trip_property(self, rho):
        assert langer_rho(langer_x(rho)) == pytest.approx(rho, rel=1e-12)

    def test_wavefunction_values(self):
        assert langer_wavefunction(1.0, 1.0) == 1.0
        assert langer_wavefunction(0.0, 2.7) == 0.0
        assert langer_wavefunction(3.0, 4.0) == pytest.approx(1.5, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_transplanted_nodeless_state_residual(self, n):
        # phi(x) = exp(-x/2) f(exp x) must satisfy the full-line equation
        # with the shifted well; second derivative by the Richardson oracle
        l = n - 1
        nu = n - 0.5

        def phi(x):
            return np.exp(-0.5 * x) * radial_factor_f(np.exp(x), l, 1.0)

        xs = np.linspace(-4.0, 4.0, 41)
        d2 = derivative(phi, xs, order=2, h0=0.05)
        res = -d2 + (nu**2 - nu * (nu + 1.0) / np.cosh(xs) ** 2) * phi(xs)
        assert np.max(np.abs(res)) < 1e-6


class TestRmWell:
    def test_depths(self):
        assert rm_potential(0.0, 1) == pytest.approx(-2.0, abs=1e-15)
        assert rm_potential(0.0, 2) == pytest.approx(-6.0, abs=1e-15)

    def test_reflectionless_decay(self):
        assert abs(rm_potential(30.0, 3)) < 1e-24

    @pytest.mark.parametrize("nb", [1, 2, 3])
    def test_spectrum_ladder(self, nb):
        assert rm_spectrum(nb) == [-float(k * k) for k in range(nb, 0, -1)]

    @pytest.mark.parametrize("nb", [1, 2, 3, 4])
    def test_shooting_oracle_finds_ladder(self, nb):
        found = dvr_bound_states(lambda x: rm_potential(x, nb))
        assert len(found) == nb
        for e, expected in zip(found, rm_spectrum(nb)):
            assert e == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("nb", [2, 3, 4])
    def test_partner_has_one_state_less(self, nb):
        found = dvr_bound_states(lambda x: -nb * (nb - 1) / np.cosh(x) ** 2)
        assert len(found) == nb - 1


class TestRmSuperpotential:
    def test_values(self):
        assert rm_superpotential(0.0, 2) == 0.0
        assert rm_superpotential(30.0, 2) == pytest.approx(2.0, abs=1e-12)
        assert rm_superpotential(1.0, 2) == pytest.approx(2 * math.tanh(1.0), rel=1e-15)

    def test_riccati_gives_partner(self):
        nb = 3
        x = np.array([-2.0, 0.3, 1.7])
        dw = derivative(lambda s: rm_superpotential(s, nb), x, h0=0.05)
        partner = dw + rm_superpotential(x, nb) ** 2
        expected = -nb * (nb - 1) / np.cosh(x) ** 2 + nb * nb
        assert partner == pytest.approx(expected, abs=1e-9)


class TestFamilyWell:
    def test_large_lambda0_is_unshifted(self):
        for x in (-1.0, 0.0, 2.0):
            assert rm_family_single(x, 1e9) == pytest.approx(
                -2.0 / math.cosh(x) ** 2, abs=1e-8
            )

    def test_center_value_at_unit_parameter(self):
        # cosh^2((ln 2)/2) = 9/8 exactly, so the well center sits at -16/9
        assert rm_family_single(0.0, 1.0) == pytest.approx(-16.0 / 9.0, rel=1e-14)

    @pytest.mark.parametrize("lam0", [0.1, 1.0, 10.0])
    def test_translation_preserves_single_state(self, lam0):
        found = dvr_bound_states(lambda x: rm_family_single(x, lam0))
        assert len(found) == 1
        assert found[0] == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("lam0", [0.1, 1.0, 10.0])
    def test_argmin_matches_shift_formula(self, lam0):
        xs = np.linspace(-8.0, 8.0, 20001)
        v = np.asarray(rm_family_single(xs, lam0))
        argmin = float(xs[int(np.argmin(v))])
        assert argmin == pytest.approx(-rm_family_shift(lam0), abs=1e-3)

    def test_limits_push_the_well_to_both_infinities(self):
        # Pursey direction: the center -shift runs to -inf as lambda0 -> 0+
        centers_pursey = [-rm_family_shift(lam0) for lam0 in (1e-2, 1e-4, 1e-6)]
        assert all(b < a for a, b in zip(centers_pursey, centers_pursey[1:]))
        assert centers_pursey[-1] < -6.0
        # opposite side: the magnitude of the shift diverges as lambda0 -> -1+
        with pytest.warns(UserWarning):
            centers_am = [-rm_family_shift(lam0) for lam0 in (-0.9, -0.99, -0.999)]
        assert all(b > a for a, b in zip(centers_am, centers_am[1:]))
        assert centers_am[-1] > 3.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rm_family_single(0.0, 0.0)
        with pytest.raises(ValueError):
            rm_family_single(0.0, -1.0)


class TestRescaling:
    def test_values(self):
        assert rescale_radius(1.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        assert rescale_radius(2.0, 3.0) == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_large_lambda0_limit(self):
        assert rescale_radius(1.0, 1e12) == pytest.approx(1.0, abs=1e-9)

    def test_always_shrinks(self):
        for lam0 in (0.1, 1.0, 42.0):
            assert rescale_radius(1.0, lam0) < 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rescale_radius(0.0, 1.0)
        with pytest.raises(ValueError):
            rescale_radius(1.0, -0.5)


class TestHalfLineReturnMap:
    def test_superpartner_values(self):
        assert halfline_superpartner(1.0, 0) == pytest.approx(0.25, abs=1e-15)
        assert halfline_superpartner(1.0, 1) == pytest.approx(1.25, abs=1e-15)

    def test_superpartner_decay(self):
        assert abs(halfline_superpartner(1e5, 0)) < 1e-9

    def test_superpotential_is_shifted_xi(self):
        # (1/2 - n) xi(rho) equals the full-line nu tanh x pulled back
        for n in (1, 2, 3):
            nu = n - 0.5
            for rho in (0.3, 1.0, 4.0):
                expected = nu * math.tanh(math.log(rho))
                assert halfline_superpotential(rho, n) == pytest.approx(
                    expected, rel=1e-13, abs=1e-13
                )

    def test_superpartner_is_pulled_back_partner_well(self):
        # U+ = [nu^2 - 1/4 - nu(nu-1)/cosh^2 x] / rho^2 with x = ln rho
        for l in (0, 1, 2):
            nu = l + 0.5
            for rho in (0.4, 1.0, 2.2):
                x = math.log(rho)
                expected = (
                    nu**2 - 0.25 - nu * (nu - 1.0) / math.cosh(x) ** 2
                ) / rho**2
                assert halfline_superpartner(rho, l) == pytest.approx(
                    expected, rel=1e-12, abs=1e-13
                )


class TestAufbau:
    def test_values(self):
        assert aufbau_rm_potential(0.0, 1) == pytest.approx(-0.5, abs=1e-15)
        assert aufbau_rm_potential(0.0, 3) == pytest.approx(-3.0, abs=1e-15)

    def test_rejects_even_or_bad_n(self):
        with pytest.raises(ValueError):
            aufbau_rm_potential(0.0, 2)
        with pytest.raises(ValueError):
            aufbau_rm_potential(0.0, 0)

    @pytest.mark.parametrize("n_aufbau,tol", [(1, 1e-6), (3, 1e-5)])
    def test_shooting_finds_deepest_state(self, n_aufbau, tol):
        found = dvr_bound_states(
            lambda x: aufbau_rm_potential(x, n_aufbau), domain=(-24.0, 24.0)
        )
        assert len(found) == n_aufbau
        assert found[0] == pytest.approx(-n_aufbau**2 / 4.0, abs=tol)
        assert found == pytest.approx(aufbau_spectrum(n_aufbau), abs=1e-5)
