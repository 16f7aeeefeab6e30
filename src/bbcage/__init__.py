"""Bipartite biregular graphs from finite geometries and designs, with exact
girth machinery, order bounds, and cage certification.

Each export is imported from its module on first access (PEP 562), so
``import bbcage`` loads no submodule and a process loads only the modules
it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "BoundsReport",
        "divisibility_bound_odd",
        "excess_of",
        "girth6_bound",
        "gq_exists_predicates",
        "hexagon_square",
        "improved_bound",
        "moore_even",
        "moore_odd",
        "polygon_family_table",
    ),
    "deletions": ("construct_named", "hyperplane_delete"),
    "designs": (
        "Design",
        "design_load",
        "design_save",
        "design_validate",
        "steiner_truncate",
        "sts_generate",
    ),
    "gf": ("Field", "FieldError", "field_new", "field_of_order"),
    "graphs": (
        "BipartiteGraph",
        "ConstructionError",
        "diameter",
        "from_dimacs",
        "from_graph6",
        "girth",
        "levi",
        "to_dimacs",
        "to_graph6",
    ),
    "incidence": ("IncidenceStructure",),
    "polygons": (
        "gq_q4",
        "gq_q5",
        "quadric_structure",
        "split_cayley_hexagon",
    ),
    "projective": (
        "Hyperplane",
        "ProjectivePoint",
        "QuadraticForm",
        "hyperplane_section",
        "pg_points",
        "quadric_points",
    ),
    "prune": (
        "affine_girth6_graph",
        "affine_slab_graph",
        "find_free_edge",
        "induced_branch_graph",
        "mixed_degree_prune",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import an export from its module on first access, and keep it."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
