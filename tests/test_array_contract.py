"""One array contract for every evaluator of a radius or coordinate.

The public functions of do_core, isospectral, fisheye and fullline that
take rho or x follow numpy: a Python float gives a float (a numpy
float64, 0-d), a list or an array gives an ndarray of the input's shape,
and a scalar result equals the matching element of the array call to
within 2 ulp.  The array call may round a power or a transcendental
function one ulp away from the scalar call, and cancellation can amplify
that (the closed form of I0 at kappa = 1, l = 2 differs by 6.7e7 ulp at
rho = 0.011), so the points here are well-conditioned ones.
"""

import inspect

import numpy as np
import pytest

from susy_fisheye import do_core, fisheye, fullline, isospectral
from susy_fisheye.do_core import DoParams

RHO = (0.3, 1.0, 2.5)
X = (-2.0, 0.0, 0.5, 3.0)

# kappa = 1 takes the closed form of I0, kappa = 1/2 and 2 the beta series
FAMILIES = {kappa: DoParams.nodeless(kappa, 2, 0.5) for kappa in (0.5, 1.0, 2.0)}

CASES = [
    ("do_core.potential_v", lambda r: do_core.potential_v(r, 1.0, 15.0), RHO),
    (
        "do_core.radial_wavefunction",
        lambda r: do_core.radial_wavefunction(r, DoParams(1.0, 1, 4)),
        RHO,
    ),
    ("do_core.radial_factor_f", lambda r: do_core.radial_factor_f(r, 2, 1.0), RHO),
    ("do_core.radial_factor_df", lambda r: do_core.radial_factor_df(r, 2, 1.0), RHO),
    ("do_core.superpotential_w", lambda r: do_core.superpotential_w(r, 1, 0.5), RHO),
    ("do_core.superpotential_dw", lambda r: do_core.superpotential_dw(r, 1, 0.5), RHO),
    ("do_core.u_minus", lambda r: do_core.u_minus(r, 1, 1.0), RHO),
    ("do_core.u_plus", lambda r: do_core.u_plus(r, 1, 1.0), RHO),
    ("isospectral.i0_closed_one", lambda r: isospectral.i0_closed_one(r, 2), RHO),
    ("isospectral.i0_quadrature", lambda r: isospectral.i0_quadrature(r, 2, 0.7), RHO),
    ("fisheye.index_maxwell", lambda r: fisheye.index_maxwell(r, 1), RHO),
    ("fullline.rm_potential", lambda x: fullline.rm_potential(x, 3), X),
    ("fullline.rm_partner_potential", lambda x: fullline.rm_partner_potential(x, 3), X),
    ("fullline.rm_family_single", lambda x: fullline.rm_family_single(x, 0.1), X),
    ("fullline.aufbau_rm_potential", lambda x: fullline.aufbau_rm_potential(x, 3), X),
]
# the column functions return a tuple: each column follows the contract
for _kappa, _params in FAMILIES.items():
    CASES.append(
        (
            f"isospectral.i0[kappa={_kappa:g}]",
            lambda r, kappa=_kappa: isospectral.i0(r, 2, kappa),
            RHO,
        )
    )
    for _i, _col in enumerate(("u_minus", "u_bos", "f", "f_bos")):
        CASES.append(
            (
                f"isospectral.family_columns[kappa={_kappa:g},{_col}]",
                lambda r, p=_params, i=_i: isospectral.family_columns(r, p)[i],
                RHO,
            )
        )
for _exact in (False, True):
    for _i, _col in enumerate(("n_maxwell", "n_iso", "ratio", "f_bos")):
        CASES.append(
            (
                f"fisheye.index_columns[exact={_exact},{_col}]",
                lambda r, exact=_exact, i=_i: fisheye.index_columns(r, 1, 1.0, exact)[i],
                RHO,
            )
        )


def _public_functions(modules):
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                yield f"{module.__name__.rsplit('.', 1)[1]}.{name}", obj


def test_every_evaluator_is_covered():
    evaluators = {
        name
        for name, fn in _public_functions((do_core, isospectral, fisheye, fullline))
        if {"rho", "x"} & set(inspect.signature(fn).parameters)
    }
    covered = {case[0].split("[")[0] for case in CASES}
    assert evaluators == covered


def test_one_radius_coordinate():
    # the radius is rho everywhere; the closed forms form their angle inside
    with_beta = [
        name
        for name, fn in _public_functions((do_core, isospectral, fisheye))
        if "beta" in inspect.signature(fn).parameters
    ]
    assert with_beta == []


@pytest.mark.parametrize("fn,points", [case[1:] for case in CASES], ids=[c[0] for c in CASES])
def test_array_contract(fn, points):
    scalars = [fn(p) for p in points]
    for value in scalars:
        assert isinstance(value, float) and np.ndim(value) == 0
    from_list = fn(list(points))
    assert isinstance(from_list, np.ndarray) and from_list.shape == (len(points),)
    from_array = fn(np.array(points))
    np.testing.assert_array_equal(from_list, from_array)
    assert fn(np.array(points)[:, None]).shape == (len(points), 1)
    np.testing.assert_array_max_ulp(np.array(scalars), from_array, maxulp=2)
