"""Bipartite biregular graphs from finite geometries and designs, with exact
girth machinery, order bounds, and cage certification."""

from .bounds import (
    BoundsReport,
    divisibility_bound_odd,
    excess_of,
    girth6_bound,
    gq_exists_predicates,
    hexagon_square,
    improved_bound,
    moore_even,
    moore_odd,
    polygon_family_table,
)
from .deletions import (
    construct_named,
    delete_blocks,
    delete_points,
    hyperplane_delete,
)
from .designs import (
    Design,
    design_load,
    design_save,
    design_validate,
    steiner_truncate,
    sts_generate,
)
from .gf import Field, FieldError, field_new, field_of_order
from .graphs import (
    BipartiteGraph,
    bb_check,
    diameter,
    distance_sets,
    from_dimacs,
    from_graph6,
    girth,
    levi,
    to_dimacs,
    to_graph6,
)
from .incidence import IncidenceStructure
from .polygons import (
    ConstructionError,
    gq_q4,
    gq_q5,
    quadric_structure,
    split_cayley_hexagon,
)
from .projective import (
    Hyperplane,
    ProjectivePoint,
    QuadraticForm,
    conic_oval,
    hyperplane_section,
    pg_points,
    quadric_points,
)
from .prune import (
    affine_girth6_graph,
    affine_slab_graph,
    find_free_edge,
    induced_branch_graph,
    mixed_degree_prune,
)

__version__ = "0.1.0"
