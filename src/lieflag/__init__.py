"""Exact integer combinatorics of simple Lie types and flag varieties.

The public names below are re-exported lazily (PEP 562): ``import lieflag``
loads no submodule, and each name imports its module on first access.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Re-exported names by the submodule that defines them.
_EXPORTS = {
    "classifier": "ClassificationResult GroupSpec Orbit VarietyDescriptor Violation classify "
    "group_spec load_database orbit_structure relations validate_database",
    "cone": "cone_cover_order cone_hilbert_function",
    "errors": "DomainError",
    "parabolic": "HomogeneousVariety ParabolicMarking RMin VarietyClass "
    "admissible_conormal_range character_weight codim_parabolic fano_index "
    "identify_marking marking minimal_homogeneous_varieties r_min",
    "representations": "MinimalIrrep bwb_section_dim check_rg_plus_one "
    "min_nontrivial_irrep weyl_dim",
    "roots": "DynkinType RootSystem Weight cartan_matrix dynkin_type fundamental_weight "
    "group_dimension positive_roots root_system weight",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# Submodules resolve too, so ``lieflag.records`` works after a bare import.
_SUBMODULES = {*_EXPORTS, "cli", "records"}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(_import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
