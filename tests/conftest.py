"""Shared oracle helpers for the test suite.

The zero-mode oracle is defined once, in susy_fisheye.verify; the tests
import these re-exports of it.
"""

from susy_fisheye.verify import _frobenius_seed as frobenius_seed
from susy_fisheye.verify import _rho_grid_residual as rho_grid_residual
from susy_fisheye.verify import _zero_mode_residual as zero_mode_residual

__all__ = ["frobenius_seed", "rho_grid_residual", "zero_mode_residual"]
