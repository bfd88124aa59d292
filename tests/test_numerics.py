import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susy_fisheye import numerics, verify
from susy_fisheye.do_core import DoParams, u_minus
from susy_fisheye.fullline import rm_potential
from susy_fisheye.isospectral import family_columns
from susy_fisheye.numerics import (
    DVR_POINTS,
    ConvergenceError,
    QuadratureResult,
    StepUnderflowError,
    _stacked,
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

    def test_budget_exhaustion_reported(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_SUBDIVISIONS", 4)
        with pytest.raises(ConvergenceError):
            integrate_adaptive(lambda x: np.sin(1000.0 * x), 0.0, 50.0, tol=1e-14)

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, 1.0, 0.0)

    def test_rejects_zero_tolerances(self):
        with pytest.raises(ValueError, match="tol and rtol"):
            integrate_adaptive(lambda x: x, 0.0, 1.0, tol=0.0)

    @pytest.mark.parametrize("name", ["tol", "rtol"])
    @pytest.mark.parametrize("bad", [math.nan, -1e-12])
    def test_rejects_nan_or_negative_tolerance_naming_it(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative, got {name} = {bad:g}$"):
            integrate_adaptive(lambda x: x, 0.0, 1.0, **{name: bad})

    def test_non_finite_integrand_names_the_panel(self):
        with pytest.raises(ValueError, match=r"non-finite integrand value on \[0.0, 1.0\]"):
            integrate_adaptive(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)

    def test_relative_tolerance_follows_the_value(self):
        # |value| ~ 4.9e17: the round-off floor alone (50 eps |value| ~ 5e3)
        # is far above any absolute tolerance, but not above rtol |value|
        f = lambda x: 1e9 * np.exp(x)
        exact = 1e9 * math.expm1(20.0)
        with pytest.raises(ConvergenceError):
            integrate_adaptive(f, 0.0, 20.0, tol=1e-10)
        r = integrate_adaptive(f, 0.0, 20.0, tol=0.0, rtol=1e-12)
        assert r.value == pytest.approx(exact, rel=1e-12)
        assert r.error_estimate <= 1e-12 * r.value

    def test_batched_call_equals_scalar_calls(self):
        f = lambda x: np.exp(-x) * np.sin(3.0 * x) ** 2 + 1.0 / (1.0 + x * x)
        a = np.array([0.0, 1.0, 2.5, 0.0, 4.0, 0.5])
        b = np.array([1.0, 7.0, 2.5, 30.0, 4.5, 0.5 + 1e-9])
        for tol, rtol in ((1e-10, 0.0), (0.0, 1e-12), (1e-14, 1e-9)):
            batch = integrate_adaptive(f, a, b, tol=tol, rtol=rtol)
            single = [integrate_adaptive(f, ai, bi, tol=tol, rtol=rtol) for ai, bi in zip(a, b)]
            assert np.array_equal(batch.value, [r.value for r in single])
            assert np.array_equal(batch.error_estimate, [r.error_estimate for r in single])
            assert batch.subdivisions == sum(r.subdivisions for r in single)

    @pytest.mark.parametrize("tol,rtol", [(1e-10, 0.0), (0.0, 1e-12)])
    def test_per_row_f_equals_separate_calls(self, tol, rtol):
        # row j of the limits carries its own function; row 2 finishes in
        # the first round while the others still refine, and [2, 2] is empty
        fns = (np.sin, lambda x: np.exp(-x) / (1.0 + x * x), lambda x: x**2)
        a = np.array([[0.0, 1.0, 2.0], [0.0, 0.5, 3.0], [2.0, 0.0, 1.0]])
        b = np.array([[30.0, 7.0, 2.0], [20.0, 1.5, 40.0], [2.0, 1.0, 3.0]])
        got = integrate_adaptive(_stacked(lambda s, fn: fn(s), [(fn,) for fn in fns]),
                                 a, b, tol=tol, rtol=rtol)
        subdivisions = 0
        for j, fn in enumerate(fns):
            row = integrate_adaptive(fn, a[j], b[j], tol=tol, rtol=rtol)
            assert np.array_equal(got.value[j], row.value)
            assert np.array_equal(got.error_estimate[j], row.error_estimate)
            subdivisions += row.subdivisions
        assert got.subdivisions == subdivisions

    def test_f_receives_one_row_per_row_of_the_limits(self):
        # the nodes of row j's panels on row j, NaN past them
        seen = []

        def f(x):
            seen.append(x.copy())
            return np.where(np.isnan(x), np.nan, 1.0)

        a = [[0.0, 1.0], [2.0, 2.0], [0.0, 0.0]]
        b = [[1.0, 3.0], [3.0, 2.0], [0.0, 0.0]]
        r = integrate_adaptive(f, a, b)
        assert r.subdivisions == 3
        assert np.allclose(r.value, [[1.0, 2.0], [1.0, 0.0], [0.0, 0.0]], rtol=1e-13, atol=0.0)
        (x,) = seen
        assert x.shape == (3, 30)
        assert np.all((x[0] > 0.0) & (x[0] < 3.0))
        assert np.all((x[1, :15] > 2.0) & (x[1, :15] < 3.0))
        assert np.isnan(x[1, 15:]).all() and np.isnan(x[2]).all()
        one_row = []
        integrate_adaptive(lambda x: one_row.append(x.shape) or x, [0.0, 1.0], [1.0, 3.0])
        assert one_row == [(1, 30)]

    def test_limits_broadcast(self):
        r = integrate_adaptive(lambda x: x, [[0.0], [1.0]], [1.0, 2.0, 3.0])
        assert r.value.shape == (2, 3)
        expected = 0.5 * (np.array([1.0, 2.0, 3.0]) ** 2 - np.array([[0.0], [1.0]]) ** 2)
        assert np.allclose(r.value, expected, rtol=0.0, atol=1e-12)
        # one panel per interval, none for the empty [1, 1]
        assert isinstance(r.subdivisions, int) and r.subdivisions == 5
        scalar = integrate_adaptive(lambda x: x, 0.0, 1.0)
        assert isinstance(scalar.value, float) and np.ndim(scalar.value) == 0


class TestDerivative:
    def test_first_derivative(self):
        assert derivative(np.sin, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_second_derivative(self):
        assert derivative(lambda x: x**3, 2.0, order=2) == pytest.approx(12.0, abs=1e-8)

    def test_half_line_factor_derivative(self):
        # analytic f' for l = 0, kappa = 1 is (1 + rho^2)^(-3/2)
        got = derivative(lambda s: s / np.sqrt(1 + s * s), 1.0)
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


def _nan_above_one(s):
    # NaN on part of the domain: its error estimates are NaN there.  s * s * s,
    # not s**3: numpy rounds a float64 scalar's cube differently from an array's
    return np.where(s > 1.0, math.nan, s * s * s)


def _staircase(s):
    # piecewise constant: many error estimates tie at 0
    return np.floor(1e3 * s)


def _row_by_row_derivative(f, x, order=1, h0=None):
    """Richardson derivative with one call of f per side of each row.

    The tableau grows a row at a time.  This is the independent reference
    of test_equals_row_by_row_tableau.
    """
    x = np.asarray(x, dtype=float)
    scale = np.fmax(1.0, np.abs(x))
    h_min = 1e-10 * scale
    if h0 is None:
        h0 = 0.05 * scale
    x, h, h_min = np.broadcast_arrays(x, np.asarray(h0, dtype=float), h_min)
    shape = x.shape
    x = x[()]
    if order == 1:
        stencil = lambda h: (f(x + h) - f(x - h)) / (2.0 * h)
    else:
        fx = f(x)
        stencil = lambda h: (f(x + h) - 2.0 * fx + f(x - h)) / (h * h)
    first = prev = None
    best = np.full(shape, math.nan)
    best_err = np.full(shape, math.inf)
    worse = np.zeros(shape, dtype=int)
    live = np.ones(shape, dtype=bool)
    for _ in range(12):
        live &= ~np.less(h, h_min)
        if not live.any():
            break
        row = [stencil(h)]
        if prev is None:
            first = row[0]
        else:
            fac = 1.0
            for j in range(len(prev)):
                fac *= 4.0
                row.append((fac * row[j] - prev[j]) / (fac - 1.0))
            err = abs(row[-1] - prev[-1]) + abs(row[-1] - row[-2])
            better = live & (err < best_err)
            best = np.where(better, row[-1], best)
            best_err = np.where(better, err, best_err)
            worse = np.where(better, 0, worse + live)
            live &= worse < 2
        prev = row
        h = h * 0.5
    best = np.where(np.isnan(best), first, best)
    return best[()]


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

    def test_f_of_another_shape_is_refused(self):
        # f is called once on the stencil grid and must keep its shape
        refused = r"^f must return an array of shape \(24,\), got shape \(\)$"
        with pytest.raises(ValueError, match=refused):
            derivative(lambda s: 1.0, 0.7)
        with pytest.raises(ValueError, match=r"shape \(24, 3\), got shape \(24,\)$"):
            derivative(lambda s: s.sum(axis=-1), self.XS[:3])

    def test_array_f_is_called_once(self):
        for x, order in ((0.7, 1), (self.XS, 1), (self.XS, 2)):
            sizes = []

            def f(s):
                sizes.append(s.size)
                return np.sin(s)

            derivative(f, x, order=order)
            assert sizes == [(24 + (order == 2)) * np.size(x)]

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("x", [0.7, XS, XS.reshape(3, 19)], ids=["scalar", "row", "grid"])
    def test_f_receives_the_stencil_grid_in_the_shape_of_x(self, order, x):
        grids = []

        def f(s):
            grids.append(s)
            return np.sin(s)

        h0 = 0.1 + 0.01 * np.abs(x)
        derivative(f, x, order=order, h0=h0)
        (grid,) = grids
        assert grid.shape == (24 + (order == 2),) + np.shape(x)
        for k in range(12):
            assert np.array_equal(grid[k], x + h0 * 0.5**k)
            assert np.array_equal(grid[12 + k], x - h0 * 0.5**k)
        if order == 2:
            assert np.array_equal(grid[24], x)

    @pytest.mark.parametrize("order", [1, 2])
    def test_per_row_stacked_f_equals_separate_calls(self, order):
        # row j of the second-to-last axis carries case j, here its own function
        fns = (np.sin, np.exp, _rational)
        x = np.stack([self.XS, 0.5 * self.XS, self.XS[::-1]])
        h0 = 0.2 * np.abs(x) + 0.01

        def stacked(s):
            return np.stack([fn(s[..., j, :]) for j, fn in enumerate(fns)], axis=-2)

        got = derivative(stacked, x, order=order, h0=h0)
        for j, fn in enumerate(fns):
            assert np.array_equal(got[j], derivative(fn, x[j], order=order, h0=h0[j]))

    @settings(max_examples=150, deadline=None)
    @given(
        f=st.sampled_from([_rational, np.sin, np.exp, _nan_above_one, _staircase]),
        order=st.sampled_from([1, 2]),
        xs=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=20),
        layout=st.sampled_from(["scalar", "row", "grid"]),
        h0_kind=st.sampled_from(["none", "scalar", "array"]),
        log2_above_floor=st.lists(st.floats(2.0**-8, 40.0), min_size=20, max_size=20),
    )
    def test_equals_row_by_row_tableau(self, f, order, xs, layout, h0_kind, log2_above_floor):
        scalar = layout == "scalar"
        x = np.array(xs[:1] if scalar else xs)
        if layout == "grid":
            # two cases on the second-to-last axis: f gets the grid (24, 2, n)
            x = np.stack([x, x[::-1]])
        # h0 = floor 2^e with e down to 2^-8: small e cuts rows at the floor;
        # a scalar h0 is the largest, which clears every point's floor
        h0 = 1e-10 * np.fmax(1.0, np.abs(x)) * np.exp2(log2_above_floor[: x.shape[-1]])
        if h0_kind == "none":
            h0 = None
        elif h0_kind == "scalar" or scalar:
            h0 = float(h0.max())
        if scalar:
            x = float(x[0])
        got = derivative(f, x, order=order, h0=h0)
        ref = _row_by_row_derivative(f, x, order=order, h0=h0)
        assert type(got) is type(ref)
        assert np.array_equal(got, ref, equal_nan=True)

    def test_nan_input_gives_nan(self):
        assert math.isnan(derivative(np.sin, math.nan))
        assert math.isnan(derivative(np.sin, 0.7, h0=math.nan))
        got = derivative(np.sin, np.array([math.nan, 0.7]), order=2)
        assert got.dtype == float
        assert math.isnan(got[0])
        assert got[1] == derivative(np.sin, 0.7, order=2)


def _stepwise_numerov(potential, grid, u0, u1):
    """Numerov march one indexed step at a time, testing |u| after each.

    The independent reference of test_equals_stepwise_march: the update and
    the overflow test of numerov_zero_energy, written as a per-step loop.
    """
    g = np.asarray(grid, dtype=float)
    h = g[1] - g[0]
    c = (1.0 - (h * h / 12.0) * np.asarray(potential(g), dtype=float)).tolist()
    u = [0.0] * g.size
    u[0], u[1] = float(u0), float(u1)
    for i in range(1, g.size - 1):
        u[i + 1] = ((12.0 - 10.0 * c[i]) * u[i] - c[i - 1] * u[i - 1]) / c[i + 1]
        if abs(u[i + 1]) > 1e300:
            raise OverflowError(f"Numerov solution exceeded 1e300 at x = {g[i + 1]}")
    return np.array(u)


def _zero_mode_march_inputs():
    """The potentials, grids and seeds of verify's zero-mode marches.

    The Langer marches of verify._zero_mode_residual, on its x = ln rho
    grid, and the two rho-grid marches of check_numerov_order.
    """
    start, end = math.log(verify.ZERO_MODE_START), math.log(5.0)
    x = np.linspace(start, end, math.ceil((end - start) / verify.ZERO_MODE_STEP) + 1)
    rho = np.exp(x)
    cases = [(kappa, l, None) for kappa in (0.5, 1.0) for l in range(4)] + [(1.0, 1, 10.0)]
    for kappa, l, lam in cases:
        if lam is None:
            u = u_minus(rho, l, kappa)
        else:
            u = family_columns(rho, DoParams.nodeless(kappa, l, lam))[1]
        langer = 0.25 + rho**2 * u
        seeds = (verify._frobenius_seed(r, l, kappa) / math.sqrt(r) for r in rho[:2])
        yield lambda _, langer=langer: langer, x, *seeds
    for h in (8e-3, 4e-3):
        grid = np.arange(h, 5.0 + h / 2, h)
        seeds = (verify._frobenius_seed(r, 0, 1.0) for r in grid[:2])
        yield lambda r: u_minus(r, 0, 1.0), grid, *seeds


class TestNumerov:
    # h = 1/4 makes c = 1 - (h^2 / 12) U exactly zero at U = 192
    GRID = 0.25 * np.arange(1601)

    def test_free_particle_is_linear(self):
        grid = np.linspace(0.0, 1.0, 101)
        h = grid[1] - grid[0]
        u = numerov_zero_energy(lambda r: np.zeros_like(np.asarray(r)), grid, 0.0, h)
        assert np.max(np.abs(u - grid)) < 1e-13

    def test_returns_a_float64_array(self):
        grid = np.linspace(0.0, 1.0, 101)
        pot = lambda r: 4.0 * np.ones_like(np.asarray(r))
        got = numerov_zero_energy(pot, grid, 0.0, 0.01)
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == grid.shape
        assert np.array_equal(got, _stepwise_numerov(pot, grid, 0.0, 0.01))

    def test_equals_stepwise_march(self):
        for pot, grid, u0, u1 in _zero_mode_march_inputs():
            got = numerov_zero_energy(pot, grid, u0, u1)
            assert np.array_equal(got, _stepwise_numerov(pot, grid, u0, u1))

    def test_overflow_detection(self):
        # u'' = 4u grows like exp(2x): past 1e300 well before x = 400
        grid = np.linspace(0.0, 400.0, 8001)
        args = (lambda r: 4.0 * np.ones_like(np.asarray(r)), grid, 0.0, grid[1] - grid[0])
        with pytest.raises(OverflowError) as ref:
            _stepwise_numerov(*args)
        message = str(ref.value)
        rho = float(message.rpartition(" = ")[2])
        assert 300.0 < rho < 400.0 and rho in grid
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            numerov_zero_energy(*args)

    def test_overflow_before_a_zero_divisor(self):
        # c = 0 at rho = 390, far past the overflow near rho = 345: the
        # march must still report the overflow
        pot = lambda r: np.where(np.asarray(r) == 390.0, 192.0, 4.0)
        args = (pot, self.GRID, 0.0, 0.25)
        with pytest.raises(OverflowError) as ref:
            _stepwise_numerov(*args)
        assert float(str(ref.value).rpartition(" = ")[2]) < 390.0
        with pytest.raises(OverflowError, match=f"^{re.escape(str(ref.value))}$"):
            numerov_zero_energy(*args)

    def test_zero_divisor_without_overflow(self):
        pot = lambda r: np.where(np.asarray(r) == 100.0, 192.0, 0.0)
        with pytest.raises(ZeroDivisionError):
            numerov_zero_energy(pot, self.GRID, 0.0, 0.25)

    def test_rejects_non_uniform_grid(self):
        free = lambda r: np.zeros_like(np.asarray(r))
        with pytest.raises(ValueError):
            numerov_zero_energy(free, np.array([0.0, 0.1, 0.3]), 0.0, 0.1)
        grid = np.linspace(1.0, 2.0, 11)
        h = grid[1] - grid[0]
        for bad in (math.nan, math.inf):
            for i in (0, 5, 10):
                g = grid.copy()
                g[i] = bad
                with pytest.raises(ValueError, match="^grid must be uniform and increasing$"):
                    numerov_zero_energy(free, g, 0.0, h)
        # the steps must agree to 1e-8 of the first step
        g = grid.copy()
        g[5] += 1e-9 * h
        assert np.all(np.isfinite(numerov_zero_energy(free, g, 0.0, h)))
        g[5] = grid[5] + 1e-7 * h
        with pytest.raises(ValueError, match="^grid must be uniform and increasing$"):
            numerov_zero_energy(free, g, 0.0, h)

    @pytest.mark.parametrize(
        "kappa,l",
        [(1 / 3, 0), (1 / 3, 2), (0.5, 0), (0.5, 1), (0.5, 3), (1.0, 0), (1.0, 1),
         (1.0, 3), (1.5, 0), (1.5, 3), (2.0, 0), (2.0, 2), (2.0, 4)],
    )
    def test_langer_potential_is_poschl_teller(self, kappa, l):
        # the potential verify marches in x = ln rho: 1/4 + rho^2 U_- is
        # (l + 1/2)^2 - (w/4) sech^2(kappa x) for the nodeless coupling w.
        # The well changes sign, so the gap is taken relative to the size
        # of its two terms (measured at most 6e-16).
        x = np.linspace(math.log(1e-3), math.log(5.0), 2001)
        rho = np.exp(x)
        langer = 0.25 + rho**2 * u_minus(rho, l, kappa)
        nu_sq = (l + 0.5) ** 2
        dip = 0.25 * DoParams.nodeless(kappa, l).w / np.cosh(kappa * x) ** 2
        assert np.max(np.abs(langer - (nu_sq - dip)) / (nu_sq + dip)) < 1e-13


class TestShooting:
    """Bound states from the eigen-oracle, numerics.dvr_bound_states."""

    @pytest.mark.parametrize(
        "well",
        [pytest.param(w, id=f"{group}-{w.param:g}")
         for group, wells in verify.DVR_WELLS.items() for w in wells],
    )
    def test_error_budget(self, monkeypatch, well):
        # DVR_POINTS is sized so that every bound state of verify's wells lies
        # within 1e-9 of the same state on 401 points over the same domain;
        # a state is off its exact value mostly by the domain cut, within 5e-9
        found = dvr_bound_states(well.potential, domain=well.domain)
        monkeypatch.setattr(numerics, "DVR_POINTS", 401)
        reference = dvr_bound_states(well.potential, domain=well.domain)
        assert len(found) == len(reference)
        assert found == pytest.approx(reference, rel=0, abs=1e-9)
        assert found == pytest.approx(well.spectrum, rel=0, abs=5e-9)

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

    @pytest.mark.parametrize(
        "well,domain,split",
        [
            (lambda x: -2.0 / np.cosh(np.asarray(x)) ** 2, (-12.0, 12.0), True),
            (lambda x: -2.0 / np.cosh(np.asarray(x)) ** 2, (-24.0, 24.0), True),
            (lambda x: rm_potential(np.asarray(x) - 0.3, 2), (-12.0, 12.0), False),
        ],
        ids=["even-12", "even-24", "translated"],
    )
    def test_eigvalsh_receives_the_sinc_matrix(self, monkeypatch, well, domain, split):
        # an even well reaches eigvalsh as its even and odd parity blocks, any
        # other well as the full matrix row[|i - j|] + diag(V), bit for bit
        m = DVR_POINTS // 2
        centre, half_width = 0.5 * (domain[0] + domain[1]), 0.5 * (domain[1] - domain[0])
        x = centre + half_width * np.arange(-m, m + 1) / m
        assert np.array_equal(x - centre, -(x - centre)[::-1])
        v = well(x)
        dx = half_width / m
        k = np.arange(1, DVR_POINTS)
        row = np.concatenate([[math.pi**2 / 3.0], 2.0 * (-1.0) ** k / (k * k)]) / (dx * dx)
        i = np.arange(DVR_POINTS)
        full = row[np.abs(i[:, None] - i)]
        full[np.diag_indices(DVR_POINTS)] += v
        p = np.arange(m + 1)
        even = row[np.abs(p[:, None] - p)] + row[p[:, None] + p]
        even[0] *= math.sqrt(0.5)
        even[:, 0] *= math.sqrt(0.5)
        even[np.diag_indices(m + 1)] += v[m:]
        q = p[1:]
        odd = row[np.abs(q[:, None] - q)] - row[q[:, None] + q]
        odd[np.diag_indices(m)] += v[m + 1 :]
        seen = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: seen.append(h.copy()) or eigvalsh(h))
        found = dvr_bound_states(well, domain=domain)
        expected = [even, odd] if split else [full]
        assert len(seen) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(seen, expected))
        energies = eigvalsh(full)
        assert found == pytest.approx(energies[energies < 0.0].tolist(), rel=0, abs=1e-12)
