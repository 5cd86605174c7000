"""Exact divided-difference operators on the deformed affine type-A2 polynomial
ring, their word scalars, closed formulas, and root-of-unity values."""

from .laurent import LaurentScalar, p_pow, q_pow, z_pow
from .words import build_word, xi_oracle, xi_recursive
from .closed_formula import xi_formula
from .rou import specialize, xi_rou_formula
from .verify import Bounds, run_suite

__version__ = "0.1.0"
