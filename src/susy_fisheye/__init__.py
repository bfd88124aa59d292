"""Isospectral deformations of the zero-energy focusing problem on the half line.

Subpackages cover the half-line model (do_core), the one-parameter
isospectral family (isospectral), the fish-eye index application
(fisheye), the full-line sech^2 picture (fullline), self-contained
numerical oracles (numerics) and a residual-reporting verification suite
(verify).  The command-line front end lives in cli.
"""

from .do_core import (
    DoParams,
    Profile,
    coupling_w,
    degeneracy,
    potential_v,
    radial_factor_f,
    radial_wavefunction,
    superpotential_w,
    u_minus,
    u_plus,
    xi_of_rho,
)
from .fisheye import (
    FigureTable,
    figure_table,
    find_inflection,
    index_iso,
    index_maxwell,
    relative_ratio,
    v_family_fisheye,
)
from .fullline import (
    aufbau_rm_potential,
    halfline_superpartner,
    langer_wavefunction,
    langer_x,
    rescale_radius,
    rm_family_single,
    rm_potential,
    rm_spectrum,
    rm_superpotential,
)
from .isospectral import (
    IsoFamily,
    beta_of_rho,
    i0_closed_half,
    i0_closed_one,
    i0_quadrature,
    radial_factor_bosonic,
    superpotential_general,
    u_bosonic_family,
    v_general,
)
from .numerics import (
    ConvergenceError,
    QuadratureResult,
    StepUnderflowError,
    derivative,
    dvr_bound_states,
    integrate_adaptive,
    numerov_zero_energy,
)
from .specfun import GegenbauerArgs, binomial, gegenbauer

__version__ = "0.1.0"
