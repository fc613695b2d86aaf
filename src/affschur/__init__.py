"""affschur: exact Kazhdan-Lusztig combinatorics for the extended affine
symmetric group, its Hecke algebra, the affine q-Schur algebra, and the
asymptotic rings built from both.

Everything is computed over Z[t, 1/t] with bignum coefficients; nothing is
floating point.  Window-bounded computations carry explicit certification
flags wherever a quantity is defined by a supremum over an infinite group.
"""

from .affperm import AffPerm, ball, bruhat_leq, bruhat_lower, from_word, generator, identity, rho
from .asymptotic import (
    AValue,
    CellReport,
    JElt,
    a_bounded,
    based_ring_checks,
    cell_preorder,
    certified_a,
    distinguished_involutions,
    gamma,
    gamma_mat,
    j_elt,
    j_mul,
    lowest_cell,
    lusztig_phi_hecke,
    lusztig_phi_schur,
    q_suite,
)
from .hecke import HeckeElt, c_elt, cprime_elt, h_bar, h_mul, h_struct, kl_mu, kl_poly, t_elt
from .laurent import LaurentPoly
from .parabolic import (
    Composition,
    PeriodicMatrix,
    compositions,
    enumerate_theta,
    matrix_of,
    min_rep,
)
from .schur import SchurElt, basis_convert, g_struct, phi_mul, schur_bar, theta_elt, theta_mul

__version__ = "0.1.0"

__all__ = [
    "AffPerm",
    "AValue",
    "CellReport",
    "Composition",
    "HeckeElt",
    "JElt",
    "LaurentPoly",
    "PeriodicMatrix",
    "SchurElt",
    "a_bounded",
    "ball",
    "based_ring_checks",
    "basis_convert",
    "bruhat_leq",
    "bruhat_lower",
    "c_elt",
    "cell_preorder",
    "certified_a",
    "compositions",
    "cprime_elt",
    "distinguished_involutions",
    "enumerate_theta",
    "from_word",
    "g_struct",
    "gamma",
    "gamma_mat",
    "generator",
    "h_bar",
    "h_mul",
    "h_struct",
    "identity",
    "j_elt",
    "j_mul",
    "kl_mu",
    "kl_poly",
    "lowest_cell",
    "lusztig_phi_hecke",
    "lusztig_phi_schur",
    "matrix_of",
    "min_rep",
    "phi_mul",
    "q_suite",
    "rho",
    "schur_bar",
    "t_elt",
    "theta_elt",
    "theta_mul",
]
