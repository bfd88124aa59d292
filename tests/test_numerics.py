import math

import numpy as np
import pytest
from conftest import zero_mode_residual
from hypothesis import given, settings
from hypothesis import strategies as st

from susy_fisheye.fullline import rm_potential
from susy_fisheye.numerics import (
    ConvergenceError,
    QuadratureResult,
    StepUnderflowError,
    derivative,
    dvr_bound_states,
    integrate_adaptive,
    numerov_zero_energy,
)


class TestQuadrature:
    def test_polynomial_exactness(self):
        r = integrate_adaptive(lambda x: x**2, 0.0, 1.0, tol=1e-12)
        assert r.value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert r.error_estimate <= 1e-12
        assert r.subdivisions >= 1

    def test_rational_integrand(self):
        r = integrate_adaptive(lambda s: s**2 / (1.0 + s**2), 0.0, 1.0, tol=1e-12)
        assert r.value == pytest.approx(1.0 - math.pi / 4.0, abs=1e-12)

    def test_empty_interval(self):
        r = integrate_adaptive(lambda x: x, 3.0, 3.0, tol=1e-10)
        assert r == QuadratureResult(0.0, 0.0, 0)

    def test_tightening_tolerance_never_hurts(self):
        cases = [
            (lambda x: x**2, 0.0, 1.0, 1.0 / 3.0),
            (lambda s: s**2 / (1.0 + s**2), 0.0, 1.0, 1.0 - math.pi / 4.0),
            (lambda x: np.sin(x), 0.0, math.pi, 2.0),
        ]
        for f, a, b, exact in cases:
            errs = [
                abs(integrate_adaptive(f, a, b, tol=tol).value - exact)
                for tol in (1e-6, 5e-7, 2.5e-7, 1e-9, 1e-12)
            ]
            assert all(e2 <= e1 + 1e-15 for e1, e2 in zip(errs, errs[1:]))

    def test_budget_exhaustion_reported(self):
        with pytest.raises(ConvergenceError):
            integrate_adaptive(
                lambda x: np.sin(1000.0 * x), 0.0, 50.0, tol=1e-14, max_subdivisions=4
            )

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, 1.0, 0.0)


class TestDerivative:
    def test_first_derivative(self):
        assert derivative(math.sin, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_second_derivative(self):
        assert derivative(lambda x: x**3, 2.0, order=2) == pytest.approx(12.0, abs=1e-8)

    def test_half_line_factor_derivative(self):
        # analytic f' for l = 0, kappa = 1 is (1 + rho^2)^(-3/2)
        got = derivative(lambda s: s / math.sqrt(1 + s * s), 1.0)
        assert got == pytest.approx(2.0**-1.5, abs=1e-8)

    def test_step_underflow(self):
        with pytest.raises(StepUnderflowError):
            derivative(math.sin, 1.0, h0=1e-12)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            derivative(math.sin, 0.0, order=3)


def _rational(s):
    # arithmetic only, so array and scalar evaluation round alike
    return (s * s * s - 2.0 * s + 1.0) / (1.0 + s * s)


class TestArrayDerivative:
    XS = np.linspace(-4.0, 4.0, 57)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("h0", [None, 0.3, "array"])
    def test_matches_scalar_calls_bit_for_bit(self, order, h0):
        if h0 == "array":
            h0 = 0.2 * np.abs(self.XS) + 0.01
        got = derivative(_rational, self.XS, order=order, h0=h0)
        steps = np.broadcast_to(h0, self.XS.shape) if h0 is not None else [None] * self.XS.size
        ref = [
            derivative(_rational, float(x), order=order, h0=None if h is None else float(h))
            for x, h in zip(self.XS, steps)
        ]
        assert np.array_equal(got, np.array(ref))

    def test_output_shape_follows_input(self):
        x = np.linspace(0.5, 3.0, 12).reshape(3, 4)
        got = derivative(np.sin, x, h0=0.1 * x)
        assert got.shape == (3, 4)
        assert np.allclose(got, np.cos(x), atol=1e-10)

    def test_step_underflow_at_any_point(self):
        x = np.array([0.5, 1.0, 2.0])
        with pytest.raises(StepUnderflowError):
            derivative(np.sin, x, h0=np.array([0.1, 1e-12, 0.1]))

    def test_scalar_x_calls_f_with_scalars(self):
        # a scalar x runs the array code on 0-d values: f is called with
        # numpy floats, so a scalar-only f such as math.sin still works, and
        # the result is a numpy float
        for order, expected, tol in ((1, math.cos(0.7), 1e-10), (2, -math.sin(0.7), 1e-8)):
            seen = []

            def f(s):
                seen.append(s)
                return math.sin(s)

            got = derivative(f, 0.7, order=order)
            assert isinstance(got, float) and np.ndim(got) == 0
            assert got == pytest.approx(expected, abs=tol)
            assert seen and all(isinstance(s, float) for s in seen)

    def test_nan_input_gives_nan(self):
        assert math.isnan(derivative(math.sin, math.nan))
        assert math.isnan(derivative(math.sin, 0.7, h0=math.nan))
        got = derivative(np.sin, np.array([math.nan, 0.7]), order=2)
        assert got.dtype == float
        assert math.isnan(got[0])
        assert got[1] == derivative(math.sin, 0.7, order=2)


class TestNumerov:
    def test_free_particle_is_linear(self):
        grid = np.linspace(0.0, 1.0, 101)
        h = grid[1] - grid[0]
        prof = numerov_zero_energy(lambda r: np.zeros_like(np.asarray(r)), grid, 0.0, h)
        assert np.max(np.abs(prof.values - grid)) < 1e-13

    def test_overflow_detection(self):
        # u'' = 4u grows like exp(2x): past 1e300 well before x = 400
        grid = np.linspace(0.0, 400.0, 8001)
        with pytest.raises(OverflowError):
            numerov_zero_energy(
                lambda r: 4.0 * np.ones_like(np.asarray(r)), grid, 0.0, grid[1] - grid[0]
            )

    def test_rejects_non_uniform_grid(self):
        with pytest.raises(ValueError):
            numerov_zero_energy(
                lambda r: np.zeros_like(np.asarray(r)),
                np.array([0.0, 0.1, 0.3]),
                0.0,
                0.1,
            )

    def test_zero_mode_of_half_line_potential(self):
        assert zero_mode_residual(0, 1.0) < 1e-6

    def test_zero_mode_of_family_potential(self):
        assert zero_mode_residual(0, 1.0, lam=1.0) < 1e-5

    def test_convergence_order(self):
        # doubling the density must reduce the zero-mode residual by >= 16
        coarse = zero_mode_residual(0, 1.0, h=8e-3)
        fine = zero_mode_residual(0, 1.0, h=4e-3)
        assert coarse / fine >= 16.0


class TestShooting:
    """Bound states from the eigen-oracle, numerics.dvr_bound_states."""

    @pytest.mark.parametrize("nb", [1, 2, 3, 4])
    def test_reflectionless_ladders(self, nb):
        found = dvr_bound_states(lambda x: -nb * (nb + 1) / np.cosh(x) ** 2)
        assert len(found) == nb
        for e, k in zip(found, range(nb, 0, -1)):
            assert e == pytest.approx(-float(k * k), abs=1e-6)

    def test_half_width_well(self):
        found = dvr_bound_states(
            lambda x: -0.5 / np.cosh(0.5 * x) ** 2, domain=(-24.0, 24.0)
        )
        assert found == pytest.approx([-0.25], abs=1e-6)

    def test_ascending_order(self):
        found = dvr_bound_states(lambda x: -12.0 / np.cosh(x) ** 2)
        assert len(found) == 3
        assert found[0] < found[1] < found[2] < 0

    def test_flat_potential_has_no_states(self):
        assert dvr_bound_states(lambda x: np.zeros_like(np.asarray(x, dtype=float))) == []

    def test_config_validation(self):
        well = lambda x: -2.0 / np.cosh(x) ** 2
        for domain in [(3.0, -3.0), (1.0, 1.0), (-math.inf, 12.0)]:
            with pytest.raises(ValueError, match="domain"):
                dvr_bound_states(well, domain=domain)
        with pytest.raises(ValueError, match="finite"):
            dvr_bound_states(lambda x: np.where(np.asarray(x) > 0, np.nan, 0.0))

    def test_harmonic_oscillator_levels(self):
        # x^2 - 20 has the levels 2n + 1 - 20; the ten below zero turn at
        # |x| < 4.5, far inside [-12, 12]
        found = dvr_bound_states(lambda x: np.asarray(x) ** 2 - 20.0)
        assert found == pytest.approx([-19.0 + 2.0 * n for n in range(10)], abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        nb=st.integers(min_value=1, max_value=4),
        shift=st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
    )
    def test_translated_ladders(self, nb, shift):
        # a translation moves the well off the grid's symmetry centre but
        # must keep exactly nb states at -k^2
        found = dvr_bound_states(lambda x: rm_potential(np.asarray(x) - shift, nb))
        assert len(found) == nb
        assert found == pytest.approx([-float(k * k) for k in range(nb, 0, -1)], abs=1e-6)
