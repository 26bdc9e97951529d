"""Exact verification of the arithmetic of the plane quartic
x^4 + y^4 + z^4 = 0: divisor certificates, the Galois module of divisor
classes, torsor obstructions, and the Brauer cocycle.

The package exports the names that the demos, the tests and perfbench/
import from it; every other name is imported from its own module.  An
export or a submodule is imported on first access, so `import
quartic_twist` loads no layer, and a request loads the modules that the
registry's static tables read, then the layers its cone reads."""

from importlib import import_module

# submodule -> the names the package exports from it
_EXPORTS = {
    "cyclotomic": ("CycNum", "d_power", "zeta", "CONJ_ZETA3", "SIGMA3", "SIGMA5", "TAU"),
    "curve": ("X", "Y", "Z", "catalog", "cusp_permutation", "on_curve", "quadratic_points"),
    "divisors": ("named_divisor",),
    "valuations": ("expand_branch", "valuation"),
    "certificates": (),
    "mordell_weil": ("PRINTED_S3", "PRINTED_S5", "derive_action_matrix", "fixed_submodule",
                     "image_submodule", "pic1_has_fixed_point", "subgroup_generated"),
    "brauer": ("cocycle_table", "cocycle_tau_tau", "product_of_linear_forms",
               "reduce_mod_curve", "verify_e_identities"),
    "theorems": (),
    "checks": ("build_report",),
    "cli": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """An export, read from its submodule, or a submodule, imported."""
    module = _MODULE_OF.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = import_module(f"{__name__}.{module}")
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
