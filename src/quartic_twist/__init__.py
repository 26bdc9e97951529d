"""Exact verification of the arithmetic of the plane quartic
x^4 + y^4 + z^4 = 0: divisor certificates, the Galois module of divisor
classes, torsor obstructions, and the Brauer cocycle."""

from .cyclotomic import (
    CONJ_ZETA3,
    IDENTITY,
    ONE,
    SIGMA3,
    SIGMA3_ALT,
    SIGMA5,
    SIGMA5_ALT,
    TAU,
    ZERO,
    Automorphism,
    CycNum,
    d_power,
    rational,
    zeta,
)
from .curve import (
    CATALOG,
    CURVE,
    HomogPoly,
    ProjPoint,
    X,
    Y,
    Z,
    catalog,
    cusp_permutation,
    on_curve,
    quadratic_points,
)
from .divisors import Divisor, named_divisor
from .valuations import (
    BranchExpansion,
    CertificateCheck,
    OrderBoundExceeded,
    expand_branch,
    principal_divisor_on_support,
    valuation,
    verify_certificate,
)
from .certificates import (
    bitangent_checks,
    cusp_relation_certificates,
    verify_principal_divisor,
)
from .mordell_weil import (
    ActionMatrix,
    Dictionary,
    ModElement,
    CUSP_DICTIONARY,
    PRINTED_S3,
    PRINTED_S5,
    cusp_class,
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
from .theorems import (
    verify_degree_two_classes_and_quadratic_points,
    verify_mordell_weil_structure,
    verify_no_determinantal_representation,
    verify_odd_degree_torsors,
)
from .checks import Report, build_report, render_json, render_text

__all__ = [
    "Automorphism", "CycNum", "d_power", "rational", "zeta",
    "CONJ_ZETA3", "IDENTITY", "ONE", "SIGMA3", "SIGMA3_ALT", "SIGMA5",
    "SIGMA5_ALT", "TAU", "ZERO",
    "CATALOG", "CURVE", "HomogPoly", "ProjPoint", "X", "Y", "Z",
    "catalog", "cusp_permutation", "on_curve",
    "quadratic_points",
    "Divisor", "named_divisor",
    "BranchExpansion", "CertificateCheck", "OrderBoundExceeded",
    "expand_branch", "principal_divisor_on_support", "valuation",
    "verify_certificate", "verify_principal_divisor",
    "bitangent_checks", "cusp_relation_certificates",
    "ActionMatrix", "Dictionary", "ModElement", "CUSP_DICTIONARY",
    "PRINTED_S3", "PRINTED_S5", "cusp_class", "derive_action_matrix",
    "fixed_submodule", "image_submodule", "pic1_has_fixed_point",
    "subgroup_generated",
    "cocycle_table", "cocycle_tau_tau", "product_of_linear_forms",
    "reduce_mod_curve", "verify_e_identities",
    "verify_degree_two_classes_and_quadratic_points",
    "verify_mordell_weil_structure", "verify_no_determinantal_representation",
    "verify_odd_degree_torsors",
    "Report", "build_report", "render_json", "render_text",
]
