"""Isospectral deformations of the zero-energy focusing problem on the half line.

Modules cover the half-line model (do_core), the one-parameter
isospectral family (isospectral), the fish-eye index application
(fisheye), the full-line sech^2 picture (fullline), self-contained
numerical oracles (numerics) and a residual-reporting verification suite
(verify).  The command-line front end lives in cli.
"""

from .do_core import (
    DoParams,
    coupling_w,
    potential_v,
    radial_factor_f,
    radial_wavefunction,
    superpotential_w,
    u_minus,
    u_plus,
)
from .fisheye import figure_table, find_inflection, index_columns, index_maxwell
from .fullline import (
    aufbau_rm_potential,
    rescale_radius,
    rm_family_single,
    rm_partner_potential,
    rm_potential,
    rm_spectrum,
)
from .isospectral import family_columns, i0, i0_closed_one, i0_quadrature
from .numerics import (
    ConvergenceError,
    QuadratureResult,
    StepUnderflowError,
    derivative,
    dvr_bound_states,
    integrate_adaptive,
    numerov_zero_energy,
)
from .specfun import gegenbauer

__version__ = "0.1.0"
