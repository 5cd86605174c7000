"""Exact divided-difference operators on the deformed affine type-A2 polynomial
ring, their word scalars, closed formulas, and root-of-unity values."""

from .laurent import (
    ExactDivisionError,
    LaurentScalar,
    ONE,
    ZERO,
    exact_div,
    p_pow,
    q_pow,
    qbinom,
    qfact,
    qnum,
    rho,
    rho_prime,
    z_pow,
)
from .polyring import TriPoly, X1, X2, X3, demazure, s_action, sigma, tau, x_var
from .words import base_case, build_word, xi_oracle, xi_recursive
from .magic import (
    GenSeries,
    chu_vandermonde_special,
    gen_interval_X,
    gen_interval_Xprime,
    magic,
    magic_genfun,
    magic_genfun_for3,
    magic_symmetry_check,
    parity_interval,
    reformed_telescope_even_partial_sums,
    reformed_telescope_partial_sums,
    term,
)
from .closed_formula import (
    XiFactors,
    factors_standard,
    xi_bzero,
    xi_formula,
    xi_klen,
    xi_standard,
)
from .rou import (
    CycElem,
    RouParams,
    cyclotomic_poly,
    rou_lemma_suite,
    specialize,
    xi_rou_corollary,
    xi_rou_formula,
)
from .report import Counterexample, VerifyReport
from .verify import Bounds, SUITES, run_suite

__version__ = "0.1.0"
