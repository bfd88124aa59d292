import math

import numpy as np
import pytest

from susy_fisheye.cli import main
from susy_fisheye.do_core import DoParams, _as_rho
from susy_fisheye.fisheye import (
    _deformation,
    figure_table,
    find_inflection,
    index_columns,
    index_maxwell,
)
from susy_fisheye.isospectral import family_columns

GRID = np.linspace(0.01, 3.0, 300)
LENS = GRID[GRID <= 1.0]


def family_potential(rho, l, lam):
    """V_fam at kappa = 1 without its centrifugal term."""
    return _deformation(_as_rho(rho), l, lam, exact=True)[2]


def f_bos_squared(l, lam):
    return family_columns(GRID, DoParams.nodeless(1.0, l, lam))[3] ** 2


class TestFamilyPotential:
    def test_maxwell_limit(self):
        assert family_potential(1.0, 0, 1e9) == pytest.approx(-0.75, abs=1e-8)

    def test_centrifugal_subtraction_identity(self):
        for l in (0, 1, 2):
            for lam in (1.0, 10.0):
                lhs = np.asarray(family_potential(GRID, l, lam)) + l * (l + 1) / GRID**2
                rhs = family_columns(GRID, DoParams.nodeless(1.0, l, lam))[1]
                assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_decay(self):
        # negative across the plot range; the far tail decays to zero (for
        # l >= 1 it crosses through zero first: the lam-dependent term only
        # falls off like rho^-3 against the rho^-4 baseline)
        assert np.all(np.asarray(family_potential(GRID, 1, 1.0)) < 0)
        tail = np.abs(np.asarray(family_potential(np.array([20.0, 100.0, 500.0]), 1, 1.0)))
        assert np.all(np.diff(tail) < 0)
        assert tail[-1] < 1e-7


class TestIndexMaxwell:
    def test_origin_values(self):
        assert index_maxwell(0.0, 0) == pytest.approx(2 * math.sqrt(3.0), rel=1e-14)
        assert index_maxwell(1.0, 1) == pytest.approx(math.sqrt(15.0) / 3.0, rel=1e-14)

    def test_large_l_normalization_limit(self):
        # n(0) = 2 sqrt((2l+3)/(2l+1)) -> 2 from above; the l = 50 value is
        # still 2.0197, so only the trend and the exact formula are asserted
        values = [index_maxwell(0.0, l) for l in (1, 5, 50, 500, 5000)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[2] == pytest.approx(2.0 * math.sqrt(103.0 / 101.0), rel=1e-13)
        assert abs(values[-1] - 2.0) < 2e-4

    def test_allows_origin_but_not_negative(self):
        index_maxwell(0.0, 2)
        with pytest.raises(ValueError):
            index_maxwell(-0.1, 2)

    @pytest.mark.parametrize(
        "rho,shown",
        [(-0.1, "-0.1"), ([0.5, -1.0], "-1.0"), (math.nan, "nan"), ([0.0, math.nan], "nan")],
    )
    def test_bad_radius_is_named(self, rho, shown):
        with pytest.raises(ValueError, match=rf"^rho must be non-negative, got rho = {shown}$"):
            index_maxwell(rho, 1)


class TestRelativeRatio:
    @pytest.mark.parametrize("lam,shown", [(0.0, "0"), (-1.0, "-1"), (math.nan, "nan")])
    def test_rejects_non_positive_lambda(self, lam, shown):
        for fn in (index_columns, family_potential):
            with pytest.raises(ValueError, match=rf"lam must be positive, got lam = {shown}$"):
                fn(GRID, 1, lam)

    def test_rejects_infinite_lambda(self):
        for fn in (index_columns, family_potential):
            with pytest.raises(ValueError, match=r"^lam must be finite, got lam = inf$"):
                fn(GRID, 1, math.inf)

    def test_vanishes_at_large_lambda(self):
        vals = np.abs(np.asarray(index_columns(GRID, 1, 1e9)[2]))
        assert np.max(vals) < 1e-8

    def test_percent_level_inside_lens(self):
        # measured peaks inside the lens: 3.24e-2 (l=1), 4.4e-3 (l=2)
        assert np.max(np.abs(np.asarray(index_columns(LENS, 1, 1.0)[2]))) <= 0.1
        assert np.max(np.abs(np.asarray(index_columns(LENS, 2, 1.0)[2]))) <= 0.1

    @pytest.mark.parametrize("lam", [1.0, 10.0])
    def test_damping_with_l(self, lam):
        peak1 = np.max(np.abs(np.asarray(index_columns(GRID, 1, lam)[2])))
        peak2 = np.max(np.abs(np.asarray(index_columns(GRID, 2, lam)[2])))
        assert peak2 < peak1

    def test_changes_sign_past_factor_peak(self):
        # f peaks at rho = sqrt(2) for l = 1: the ratio is positive before
        # and negative after
        assert index_columns(1.0, 1, 1.0)[2] > 0
        assert index_columns(2.0, 1, 1.0)[2] < 0


class TestIndexIso:
    def test_equals_maxwell_at_large_lambda(self):
        gap = np.abs(
            np.asarray(index_columns(GRID, 1, 1e9)[1]) - np.asarray(index_maxwell(GRID, 1))
        )
        assert np.max(gap) < 1e-8

    def test_composition(self):
        got = index_columns(1.0, 1, 1.0)[1]
        expected = index_maxwell(1.0, 1) * (1.0 + index_columns(1.0, 1, 1.0)[2])
        assert got == pytest.approx(expected, rel=1e-14)

    def test_exact_mode_taylor_bound_inside_lens(self):
        n_exact = np.asarray(index_columns(LENS, 1, 1.0, exact=True)[1])
        n_first = np.asarray(index_columns(LENS, 1, 1.0)[1])
        n_m = np.asarray(index_maxwell(LENS, 1))
        peak = np.max(np.abs(np.asarray(index_columns(LENS, 1, 1.0)[2])))
        assert np.all(np.abs(n_exact - n_first) < 0.5 * peak**2 * n_m)

    def test_exact_mode_rejects_non_negative_potential(self):
        # a huge negative-side ratio cannot happen on this grid, so force
        # the guard through the far tail where the family term dominates
        with pytest.raises(ValueError):
            index_columns(2000.0, 1, 0.001, exact=True)


class TestFindInflection:
    def test_maxwell_baseline(self):
        star = find_inflection(0, 1e9, GRID)
        assert star is not None
        assert abs(star - 1.0 / math.sqrt(3.0)) <= 2 * (GRID[1] - GRID[0])

    @pytest.mark.parametrize("l", [0, 1, 2])
    @pytest.mark.parametrize("lam", [1.0, 10.0])
    def test_inside_lens(self, l, lam):
        star = find_inflection(l, lam, GRID)
        assert star is not None and 0.0 < star <= 1.0

    def test_family_moves_the_inflection(self):
        baseline = find_inflection(0, 1e9, GRID)
        moved = find_inflection(0, 10.0, GRID)
        assert abs(moved - baseline) > GRID[1] - GRID[0]

    def test_grid_too_coarse(self):
        with pytest.raises(ValueError):
            find_inflection(1, 1.0, np.linspace(0.01, 3.0, 80))


class TestFigureTable:
    def test_columns_and_meta(self):
        grid, n_maxwell, n_iso, ratio, f_bos_sq = figure_table(1, 1.0, GRID)
        assert np.array_equal(grid, GRID)
        for col in (n_maxwell, n_iso, ratio, f_bos_sq):
            assert col.shape == GRID.shape
        assert np.all(n_maxwell > 0) and np.all(n_iso > 0)

    def test_larger_lambda_damps_the_ratio(self):
        peak_1 = np.max(np.abs(figure_table(2, 1.0, GRID)[3]))
        peak_10 = np.max(np.abs(figure_table(2, 10.0, GRID)[3]))
        assert peak_10 < peak_1

    def test_first_order_index_can_turn_negative_for_s_wave(self):
        # for l = 0, lam = 1 the first-order ratio drops below -1 past
        # rho ~ 2.1, so figure_table refuses the default grid
        with pytest.raises(ValueError, match="^index columns must be strictly positive$"):
            figure_table(0, 1.0, GRID)

    @pytest.mark.parametrize(
        "l,lam",
        [
            (0, 1.0),
            pytest.param(
                0,
                10.0,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="measured argmax of f_bos^2 is 2.23 for l=0, lam=10: "
                    "the undamped factor has no interior peak at l=0 and the "
                    "damping denominator pushes the peak past 1.5",
                ),
            ),
            (1, 1.0),
            (1, 10.0),
            (2, 1.0),
            (2, 10.0),
        ],
    )
    def test_surface_peaking(self, l, lam):
        f_bos_sq = f_bos_squared(l, lam)
        peak_rho = float(GRID[int(np.argmax(f_bos_sq))])
        assert 0.5 <= peak_rho <= 1.5

    @pytest.mark.parametrize("l,lam", [(0, 1.0), (0, 10.0), (1, 1.0), (2, 10.0)])
    def test_f_bos_squared_single_peaked(self, l, lam):
        col = f_bos_squared(l, lam)
        d = np.diff(col)
        switch = np.nonzero(d < 0)[0]
        assert switch.size > 0
        k = switch[0]
        assert np.all(d[:k] > 0) and np.all(d[k:] < 0)

    def test_csv_schema(self, capsys):
        # the figure command's CSV holds the table's columns, one row per
        # grid point, with every value round-tripping exactly
        assert main(
            ["figure", "--l", "1", "--lambda", "1", "--rho-min", "0.5",
             "--rho-max", "1.5", "--samples", "5"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "rho,n_maxwell,n_iso,ratio_minus_1,f_bos_sq"
        assert len(lines) == 6
        assert all(len(line.split(",")) == 5 for line in lines[1:])
        expected = np.column_stack(figure_table(1, 1.0, np.linspace(0.5, 1.5, 5)))
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(rows, expected)
