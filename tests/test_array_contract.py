"""One array contract for every evaluator of a radius, angle or coordinate.

The public functions of do_core, isospectral, fisheye and fullline that
take rho, beta or x follow numpy: a Python float gives a float (a numpy
float64, 0-d), a list or an array gives an ndarray of the input's shape,
and a scalar result equals the matching element of the array call to
within 2 ulp.  The array call may round a power or a transcendental
function one ulp away from the scalar call, and cancellation can amplify
that (the closed form of I0 at kappa = 1/2, l = 2 differs by 4096 ulp at
rho = 0.5), so the points here are well-conditioned ones.
"""

import inspect

import numpy as np
import pytest

from susy_fisheye import do_core, fisheye, fullline, isospectral
from susy_fisheye.do_core import DoParams
from susy_fisheye.isospectral import IsoFamily

RHO = (0.3, 1.0, 2.5)
BETA = (0.2, 0.7, 1.2)
X = (-2.0, 0.0, 0.5, 3.0)

# kappa = 1/2 and 1 take the closed forms of I0, kappa = 2 the quadrature loop
FAMILIES = {kappa: IsoFamily(DoParams.nodeless(kappa, 2, 0.5)) for kappa in (0.5, 1.0, 2.0)}

CASES = [
    ("do_core.potential_v", lambda r: do_core.potential_v(r, 1.0, 15.0), RHO),
    ("do_core.xi_of_rho", lambda r: do_core.xi_of_rho(r, 0.5), RHO),
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
    ("isospectral.beta_of_rho", lambda r: isospectral.beta_of_rho(r, 0.5), RHO),
    ("isospectral.i0_closed_half", lambda b: isospectral.i0_closed_half(b, 2), BETA),
    ("isospectral.i0_closed_one", lambda b: isospectral.i0_closed_one(b, 2), BETA),
    ("fisheye.v_family_fisheye", lambda r: fisheye.v_family_fisheye(r, 1, 1.0), RHO),
    ("fisheye.index_maxwell", lambda r: fisheye.index_maxwell(r, 1), RHO),
    ("fisheye.relative_ratio", lambda r: fisheye.relative_ratio(r, 1, 1.0), RHO),
    ("fisheye.index_iso", lambda r: fisheye.index_iso(r, 1, 1.0), RHO),
    ("fisheye.index_iso[exact]", lambda r: fisheye.index_iso(r, 1, 1.0, exact=True), RHO),
    ("fullline.langer_x", fullline.langer_x, RHO),
    ("fullline.langer_rho", fullline.langer_rho, X),
    ("fullline.langer_wavefunction", lambda r: fullline.langer_wavefunction(2.5, r), RHO),
    ("fullline.rm_potential", lambda x: fullline.rm_potential(x, 3), X),
    ("fullline.rm_superpotential", lambda x: fullline.rm_superpotential(x, 3), X),
    ("fullline.rm_family_single", lambda x: fullline.rm_family_single(x, 0.1), X),
    ("fullline.halfline_superpartner", lambda r: fullline.halfline_superpartner(r, 1), RHO),
    ("fullline.halfline_superpotential", lambda r: fullline.halfline_superpotential(r, 2), RHO),
    ("fullline.aufbau_rm_potential", lambda x: fullline.aufbau_rm_potential(x, 3), X),
]
for _name in ("v_general", "superpotential_general", "u_bosonic_family", "radial_factor_bosonic"):
    for _kappa, _family in FAMILIES.items():
        CASES.append(
            (
                f"isospectral.{_name}[kappa={_kappa:g}]",
                lambda r, fn=getattr(isospectral, _name), fam=_family: fn(r, fam),
                RHO,
            )
        )

# the quadrature oracle integrates to one radius per call
ONE_RADIUS = {"isospectral.i0_quadrature"}


def test_every_evaluator_is_covered():
    evaluators = set()
    for module in (do_core, isospectral, fisheye, fullline):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and {"rho", "beta", "x"} & set(
                inspect.signature(obj).parameters
            ):
                evaluators.add(f"{module.__name__.rsplit('.', 1)[1]}.{name}")
    covered = {case[0].split("[")[0] for case in CASES}
    assert evaluators - ONE_RADIUS == covered


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
