import math
import re
import warnings

import numpy as np
import pytest

from susy_fisheye.fullline import (
    aufbau_rm_potential,
    aufbau_spectrum,
    rescale_radius,
    rm_family_shift,
    rm_family_single,
    rm_partner_potential,
    rm_potential,
    rm_spectrum,
)
from susy_fisheye.numerics import derivative, dvr_bound_states


class TestRmWell:
    def test_depths(self):
        assert rm_potential(0.0, 1) == pytest.approx(-2.0, abs=1e-15)
        assert rm_potential(0.0, 2) == pytest.approx(-6.0, abs=1e-15)

    def test_reflectionless_decay(self):
        assert abs(rm_potential(30.0, 3)) < 1e-24

    @pytest.mark.parametrize("nb", [1, 2, 3])
    def test_spectrum_ladder(self, nb):
        assert rm_spectrum(nb) == [-float(k * k) for k in range(nb, 0, -1)]

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match=r"positive integer, got n_b_int = 0$"):
            rm_spectrum(0)
        with pytest.raises(ValueError, match=r"got n_b_int = 1.5$"):
            rm_potential(0.0, 1.5)
        with pytest.raises(ValueError, match=r"positive integer, got n_b_int = 0$"):
            rm_partner_potential(0.0, 0)
        with pytest.raises(ValueError, match=r"got n_b_int = 2.5$"):
            rm_partner_potential(0.0, 2.5)


class TestRmSuperpotential:
    def test_riccati_gives_partner(self):
        # W = nb tanh x factorizes the well: W^2 - W' - nb^2 is the well and
        # W^2 + W' - nb^2 its partner with one bound state less
        nb = 3
        x = np.array([-2.0, 0.3, 1.7])
        dw = derivative(lambda s: nb * np.tanh(s), x, h0=0.05)
        w2 = (nb * np.tanh(x)) ** 2
        assert w2 - dw - nb * nb == pytest.approx(rm_potential(x, nb), abs=1e-9)
        assert w2 + dw - nb * nb == pytest.approx(rm_partner_potential(x, nb), abs=1e-9)


class TestFamilyWell:
    def test_large_lambda0_is_unshifted(self):
        for x in (-1.0, 0.0, 2.0):
            assert rm_family_single(x, 1e9) == pytest.approx(
                -2.0 / math.cosh(x) ** 2, abs=1e-8
            )

    def test_center_value_at_unit_parameter(self):
        # cosh^2((ln 2)/2) = 9/8 exactly, so the well center sits at -16/9
        assert rm_family_single(0.0, 1.0) == pytest.approx(-16.0 / 9.0, rel=1e-14)

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

    @pytest.mark.parametrize("lam0", [5e-324, -5e-324, 1e-320, -1e-310, 5.5e-309])
    def test_shift_is_finite_where_the_inverse_overflows(self, lam0):
        # 1/lambda0 overflows below about 5.6e-309, where the shift is
        # (1/2)(ln(1 + lambda0) - ln|lambda0|)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            shift = rm_family_shift(lam0)
        assert math.isfinite(shift)
        assert shift == pytest.approx(0.5 * (math.log1p(lam0) - math.log(abs(lam0))), rel=1e-15)

    def test_shift_at_the_smallest_float(self):
        assert rm_family_shift(5e-324) == 372.2200359606906

    def test_shift_is_unchanged_where_the_inverse_is_finite(self):
        lam0 = np.concatenate([np.geomspace(5.57e-309, 1e300, 400),
                               -np.geomspace(5.57e-309, 0.999, 400)]).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            shifts = [rm_family_shift(x) for x in lam0]
        assert shifts == [0.5 * math.log(abs(1.0 + 1.0 / x)) for x in lam0]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rm_family_single(0.0, 0.0)
        with pytest.raises(ValueError):
            rm_family_single(0.0, -1.0)

    @pytest.mark.parametrize("lam0,shown", [(math.nan, "nan"), (0.0, "0"), (-1.0, "-1"),
                                            (-2.5, "-2.5")])
    def test_refusal_names_the_value(self, lam0, shown):
        message = re.escape(f"lambda0 must lie in (-1, 0) or (0, inf), got lambda0 = {shown}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            rm_family_shift(lam0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            rm_family_single(0.0, lam0)


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

    @pytest.mark.parametrize(
        "R,lam0,message",
        [
            (0.0, 1.0, "R must be positive and finite, got R = 0"),
            (math.nan, 1.0, "R must be positive and finite, got R = nan"),
            (math.inf, 1.0, "R must be positive and finite, got R = inf"),
            (-math.inf, 1.0, "R must be positive and finite, got R = -inf"),
            (1.0, -0.5, "lambda0 must be positive and finite, got lambda0 = -0.5"),
            (1.0, math.nan, "lambda0 must be positive and finite, got lambda0 = nan"),
            (1.0, math.inf, "lambda0 must be positive and finite, got lambda0 = inf"),
            (1.0, -math.inf, "lambda0 must be positive and finite, got lambda0 = -inf"),
        ],
        ids=["R-zero", "R-nan", "R-inf", "R-minus-inf", "lambda0-negative", "lambda0-nan",
             "lambda0-inf", "lambda0-minus-inf"],
    )
    def test_refusal_names_the_value(self, R, lam0, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rescale_radius(R, lam0)


class TestAufbau:
    def test_values(self):
        assert aufbau_rm_potential(0.0, 1) == pytest.approx(-0.5, abs=1e-15)
        assert aufbau_rm_potential(0.0, 3) == pytest.approx(-3.0, abs=1e-15)

    def test_rejects_even_or_bad_n(self):
        with pytest.raises(ValueError, match=r"odd integer, got N_aufbau = 2$"):
            aufbau_rm_potential(0.0, 2)
        with pytest.raises(ValueError, match=r"got N_aufbau = 0$"):
            aufbau_rm_potential(0.0, 0)

    @pytest.mark.parametrize("n_aufbau,tol", [(1, 1e-6), (3, 1e-5)])
    def test_shooting_finds_deepest_state(self, n_aufbau, tol):
        found = dvr_bound_states(
            lambda x: aufbau_rm_potential(x, n_aufbau), domain=(-24.0, 24.0)
        )
        assert len(found) == n_aufbau
        assert found[0] == pytest.approx(-n_aufbau**2 / 4.0, abs=tol)
        assert found == pytest.approx(aufbau_spectrum(n_aufbau), abs=1e-5)
