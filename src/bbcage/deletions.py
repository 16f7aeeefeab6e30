"""Substructure deletions: a hyperplane section removed from a polygon's
incidence graph, as the induced subgraph on the vertices outside it, and the
named families, each one hyperplane deletion with a closed-form contract.
Ovoids, subquadrangles and grids of the quadrics are all hyperplane sections,
so each is deleted here."""

from __future__ import annotations

from math import gcd

from . import polygons
from .gf import Field, field_of_order
from .graphs import BipartiteGraph, expect, expect_biregular, girth, induced_subgraph, levi
from .incidence import IncidenceStructure
from .projective import Hyperplane, hyperplane_section


def hyperplane_delete(structure: IncidenceStructure, h: Hyperplane) -> BipartiteGraph:
    """Delete the points of a coordinatized polygon lying on a hyperplane and
    the lines fully inside it.

    Every remaining line loses exactly one point (checked via the section
    classification), giving an (m, n+1) biregular graph whose order is pinned
    by the section size u and whose girth never drops below the host's 2r.
    The measured girth is stored in g.meta["girth"]; at boundary parameters a
    deletion can kill every shortest cycle and push the girth above 2r.
    """
    field: Field | None = structure.tag.get("field")
    order = structure.tag.get("order")
    r = structure.tag.get("gonality")
    if field is None or order is None or r is None:
        raise ValueError("hyperplane deletion needs a coordinatized tagged polygon")
    if structure.points and not isinstance(structure.points[0], tuple):
        raise ValueError("structure points carry no coordinates")
    pts_in, blocks_inside, _ = hyperplane_section(
        structure.points, structure.blocks, h, field
    )
    m, n = order
    u = len(pts_in)
    host = levi(structure)
    doomed = {*pts_in, *(host.n_a + b for b in blocks_inside)}
    g = induced_subgraph(host, (v for v in range(host.n_vertices) if v not in doomed))
    # the order (m+n+1) * ((m+1)((mn)^(r/2) - 1) / (m(mn-1)) - u/m), as an
    # exact fraction in lowest terms; one that is not an integer is no order
    num = (m + n + 1) * ((m + 1) * ((m * n) ** (r // 2) - 1) - u * (m * n - 1))
    den = m * (m * n - 1)
    common = gcd(num, den)
    num, den = num // common, den // common
    expect(den == 1, f"hyperplane deletion order {g.n_vertices} != {num}/{den}")
    # the girth is measured, not predicted: only its floor 2r is a contract
    gi = girth(g)
    expect_biregular(g, m, n + 1, gi, num, "hyperplane deletion")
    expect(gi >= 2 * r, f"deletion decreased girth to {gi} from {2 * r}")
    g.meta["girth"] = gi
    return g


# The parabolic section of Q(5,q) is the subquadrangle Q(4,q), so the
# parabolic prune and the subquadrangle deletion are one deletion.
_Q5_PARABOLIC = (
    "q5",
    lambda field: (0, 0, 0, 0, 1, 0),
    lambda q: (q, q * q + 1, 8, (q * q + q + 1) * (q ** 3 - q)),
)

# family -> (host polygon as a key of polygons.HOSTS, coefficients of the
# deleted hyperplane over the host's field, closed-form contract
# (m, n, girth, order) in q).  The host builder and ovoid_hyperplane are
# looked up in polygons when called, not held here.
NAMED_FAMILIES = {
    "q4-hyperbolic-prune": (
        "q4",
        lambda field: (1, 0, 0, 0, 0),
        lambda q: (q, q + 1, 8, (2 * q + 1) * (q * q - 1)),
    ),
    "q5-parabolic-prune": _Q5_PARABOLIC,
    # At q = 2 every hexagon 12-cycle meets the hyperbolic section, for every
    # hyperbolic hyperplane (exhaustively checked, cycle-enumeration verified):
    # the result is the subdivided Coxeter graph of girth 14.  For q >= 3 the
    # girth stays exactly 12.
    "hexagon-hyperbolic-prune": (
        "hexagon",
        lambda field: (1, 0, 0, 0, 0, 0, 0),
        lambda q: (q, q + 1, 14 if q == 2 else 12, (2 * q + 1) * (q ** 4 - q)),
    ),
    # At q = 2 every 8-cycle of the quadrangle meets every ovoid: what remains
    # is the subdivided Petersen graph of girth 10.  For q >= 3 some
    # quadrangle misses the ovoid and the girth stays exactly 8.
    "q4-ovoid-delete": (
        "q4",
        lambda field: polygons.ovoid_hyperplane(field),
        lambda q: (q, q + 1, 10 if q == 2 else 8, (q * q + 1) * (2 * q + 1)),
    ),
    "q5-subgq-delete": _Q5_PARABOLIC,
}


def construct_named(family: str, q: int) -> BipartiteGraph:
    """One-call named deletions: the family's hyperplane section deleted from
    its host polygon over GF(q).  Every output meets the family's degrees,
    girth and closed-form order or construction aborts."""
    if family not in NAMED_FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {sorted(NAMED_FAMILIES)}")
    host, coeffs, contract = NAMED_FAMILIES[family]
    field = field_of_order(q)
    structure = getattr(polygons, polygons.HOSTS[host])(field)
    g = hyperplane_delete(structure, Hyperplane(coeffs(field)))
    m, n, girth_expected, order = contract(q)
    return expect_biregular(g, m, n, girth_expected, order, family)
