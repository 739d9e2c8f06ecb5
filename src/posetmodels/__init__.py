"""Model structures on finite bounded lattices.

Given a finite bounded lattice and a subcategory of weak equivalences,
decide whether a Quillen model structure with those weak equivalences
exists, construct such structures explicitly, verify every axiom
exhaustively, connect any two structures by a zigzag of identity Quillen
equivalences, and reduce a structure to its homotopy category.

Importing the package imports none of its submodules.  Each public name
below is imported from its defining module on first access and then
cached here (PEP 562), so a caller, the command line among them, loads
only the modules it uses.
"""

from importlib import import_module as _import_module

_EXPORTS = {  # defining module: the public names it gives the package
    "centers": (
        "CenterEnumeration", "CenterMap", "compute_Jchi", "compute_Qchi", "compute_Wc_chi",
        "compute_Wf_chi", "enumerate_centers", "find_centers", "product_centers", "validate_centers",
    ),
    "classes": (
        "MorphClass", "factorize", "is_binary_coproduct_closed", "is_binary_product_closed",
        "is_composition_closed", "is_mls", "is_pullback_closed", "is_pushout_closed", "is_wfs",
        "left_complement", "lifts", "proper_factorizations", "right_complement", "subcategory_check",
    ),
    "dot": ("export_dot",),
    "equivalence": ("ReductionMaps", "Zigzag", "build_zigzag", "homotopy_reduce", "is_identity_left_quillen"),
    "errors": ("PosetModelError",),
    "fixtures": ("fixture", "load"),
    "formats": (),
    "lattice": ("FiniteLattice", "Pair", "build_lattice", "join_all", "meet_all", "pullback_of", "pushout_of"),
    "models": (
        "ModelStruct", "cofibrant_objects", "construct_from_centers", "construct_from_centers_dual",
        "construct_genMC", "construct_genMC_dual", "construct_newcofib", "construct_newfib_dual",
        "construct_terminal", "extract_centers", "factor_via_centers", "fibrant_objects",
        "generating_sets", "replacement", "verify_model",
    ),
    "oracle": ("InstanceGen", "decide_by_enumeration", "enumerate_model_structures", "random_instances"),
    "relative": (
        "Decision", "RelStruct", "check_cw_factorization", "check_s2of3", "compute_Wc", "compute_Wf",
        "recognize_finite", "validate_relative",
    ),
    "report": ("Check", "Report"),
}
# every submodule above is public under its own name
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    names = {n for n in globals() if not n.startswith("_") or n.startswith("__")}
    return sorted(names.union(__all__) - {"__getattr__", "__dir__"})
