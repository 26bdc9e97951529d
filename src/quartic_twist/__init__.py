"""Exact verification of the arithmetic of the plane quartic
x^4 + y^4 + z^4 = 0: divisor certificates, the Galois module of divisor
classes, torsor obstructions, and the Brauer cocycle.

The package exports the names that the demos, the tests and perfbench/
import from it; every other name is imported from its own module."""

from .cyclotomic import CONJ_ZETA3, SIGMA3, SIGMA5, TAU, CycNum, d_power, zeta
from .curve import X, Y, Z, catalog, cusp_permutation, on_curve, quadratic_points
from .divisors import named_divisor
from .valuations import expand_branch, valuation
from .mordell_weil import (
    PRINTED_S3,
    PRINTED_S5,
    derive_action_matrix,
    fixed_submodule,
    image_submodule,
    pic1_has_fixed_point,
    subgroup_generated,
)
from .brauer import (
    cocycle_table,
    cocycle_tau_tau,
    product_of_linear_forms,
    reduce_mod_curve,
    verify_e_identities,
)
from .checks import build_report

__all__ = [
    "CycNum", "d_power", "zeta", "CONJ_ZETA3", "SIGMA3", "SIGMA5", "TAU",
    "X", "Y", "Z", "catalog", "cusp_permutation", "on_curve", "quadratic_points",
    "named_divisor",
    "expand_branch", "valuation",
    "PRINTED_S3", "PRINTED_S5", "derive_action_matrix", "fixed_submodule",
    "image_submodule", "pic1_has_fixed_point", "subgroup_generated",
    "cocycle_table", "cocycle_tau_tau", "product_of_linear_forms",
    "reduce_mod_curve", "verify_e_identities",
    "build_report",
]
