"""Substructure deletions from incidence structures: point sets (ovoids),
block sets (spreads), subquadrangles, and hyperplane sections, plus the named
families, each one hyperplane deletion with a closed-form contract."""

from __future__ import annotations

import logging
from fractions import Fraction

from .gf import Field, field_of_order
from .graphs import BipartiteGraph, girth, levi
from .incidence import IncidenceStructure
from .polygons import (
    expect,
    expect_biregular,
    gq_q4,
    gq_q5,
    ovoid_hyperplane,
    split_cayley_hexagon,
)
from .projective import Hyperplane, hyperplane_section

log = logging.getLogger(__name__)


def delete_points(
    structure: IncidenceStructure, point_ids, drop_empty_blocks: bool = False
) -> IncidenceStructure:
    """Remove a point set; blocks shrink by their removed members.

    Deletion must not create duplicate blocks (it never does for polygon
    inputs); blocks emptied by the deletion are dropped only when
    drop_empty_blocks is set, and with a logged count.
    """
    doomed = set(point_ids)
    if any(not 0 <= x < structure.num_points for x in doomed):
        raise ValueError("point set to delete is not a subset of the points")
    remap = {}
    new_points = []
    for i, payload in enumerate(structure.points):
        if i in doomed:
            continue
        remap[i] = len(new_points)
        new_points.append(payload)
    new_blocks = []
    emptied = 0
    for blk in structure.blocks:
        t = tuple(remap[x] for x in blk if x not in doomed)
        if not t:
            emptied += 1
            if drop_empty_blocks:
                continue
            raise ValueError(
                "deletion emptied a block; pass drop_empty_blocks to allow"
            )
        new_blocks.append(t)
    if emptied and drop_empty_blocks:
        log.info("delete_points dropped %d emptied blocks", emptied)
    expect(len(set(new_blocks)) == len(new_blocks), "deletion created duplicate blocks")
    return IncidenceStructure(new_points, new_blocks, tag=structure.tag)


def delete_blocks(
    structure: IncidenceStructure, block_ids, as_spread: bool = False
) -> IncidenceStructure:
    """Remove a block set, points untouched.  With as_spread the set must be
    pairwise disjoint and have st+1 members for the structure's order (s, t)."""
    doomed = set(block_ids)
    if any(not 0 <= x < structure.num_blocks for x in doomed):
        raise ValueError("block set to delete is not a subset of the blocks")
    if as_spread:
        order = structure.tag.get("order")
        if order is None:
            raise ValueError("spread validation needs a structure with a known order")
        s, t = order
        if len(doomed) != s * t + 1:
            raise ValueError(
                f"a spread of an order ({s}, {t}) quadrangle has {s * t + 1} lines, "
                f"got {len(doomed)}"
            )
        seen: set[int] = set()
        for bi in sorted(doomed):
            blk = structure.blocks[bi]
            if seen.intersection(blk):
                raise ValueError("spread lines are not pairwise disjoint")
            seen.update(blk)
    new_blocks = [b for i, b in enumerate(structure.blocks) if i not in doomed]
    return IncidenceStructure(structure.points, new_blocks, tag=structure.tag)


def delete_subquadrangle(
    structure: IncidenceStructure, sub_points, sub_blocks
) -> BipartiteGraph:
    """Delete a subquadrangle of order (m, n/m) from a generalized quadrangle
    of order (m, n); every remaining line must contain exactly one deleted
    point, and the result is an (m, n+1; 8) biregular graph of order
    (m+n+1) (m^2-1) n / m."""
    order = structure.tag.get("order")
    if order is None:
        raise ValueError("subquadrangle deletion needs a structure with a known order")
    m, n = order
    if n % m:
        raise ValueError(f"order ({m}, {n}) does not admit an (m, n/m) subquadrangle")
    doomed_pts = set(sub_points)
    doomed_blocks = set(sub_blocks)
    for bi, blk in enumerate(structure.blocks):
        if bi in doomed_blocks:
            continue
        hit = sum(1 for x in blk if x in doomed_pts)
        if hit != 1:
            raise ValueError(
                f"remaining line {bi} contains {hit} deleted points, expected 1"
            )
    remaining = delete_points(
        delete_blocks(structure, doomed_blocks), doomed_pts
    )
    g = levi(remaining, meta={"construction": "subquadrangle-delete"})
    return expect_biregular(
        g, m, n + 1, 8, (m + n + 1) * (m * m - 1) * n // m, "subquadrangle deletion"
    )


def hyperplane_delete(structure: IncidenceStructure, h: Hyperplane) -> BipartiteGraph:
    """Delete the points of a coordinatized polygon lying on a hyperplane and
    the lines fully inside it.

    Every remaining line loses exactly one point (checked via the section
    classification), giving an (m, n+1) biregular graph whose order is pinned
    by the section size u and whose girth never drops below the host's 2r.
    The measured girth is stored in the graph meta; at boundary parameters a
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
    remaining = delete_points(delete_blocks(structure, blocks_inside), pts_in)
    g = levi(remaining, meta={"construction": "hyperplane-delete", "u": u})
    expected = (m + n + 1) * (
        Fraction((m + 1) * ((m * n) ** (r // 2) - 1), m * (m * n - 1)) - Fraction(u, m)
    )
    # the girth is measured, not predicted: only its floor 2r is a contract
    gi = girth(g)
    expect_biregular(g, m, n + 1, gi, expected, "hyperplane deletion")
    expect(gi >= 2 * r, f"deletion decreased girth to {gi} from {2 * r}")
    g.meta["girth"] = gi
    return g


# The parabolic section of Q(5,q) is the subquadrangle Q(4,q), so the
# parabolic prune and the subquadrangle deletion are one deletion.
_Q5_PARABOLIC = (
    gq_q5,
    lambda field: (0, 0, 0, 0, 1, 0),
    lambda q: (q, q * q + 1, 8, (q * q + q + 1) * (q ** 3 - q)),
)

# family -> (host polygon, coefficients of the deleted hyperplane over the
# host's field, closed-form contract (m, n, girth, order) in q)
NAMED_FAMILIES = {
    "q4-hyperbolic-prune": (
        gq_q4,
        lambda field: (1, 0, 0, 0, 0),
        lambda q: (q, q + 1, 8, (2 * q + 1) * (q * q - 1)),
    ),
    "q5-parabolic-prune": _Q5_PARABOLIC,
    # At q = 2 every hexagon 12-cycle meets the hyperbolic section, for every
    # hyperbolic hyperplane (exhaustively checked, cycle-enumeration verified):
    # the result is the subdivided Coxeter graph of girth 14.  For q >= 3 the
    # girth stays exactly 12.
    "hexagon-hyperbolic-prune": (
        split_cayley_hexagon,
        lambda field: (1, 0, 0, 0, 0, 0, 0),
        lambda q: (q, q + 1, 14 if q == 2 else 12, (2 * q + 1) * (q ** 4 - q)),
    ),
    # At q = 2 every 8-cycle of the quadrangle meets every ovoid: what remains
    # is the subdivided Petersen graph of girth 10.  For q >= 3 some
    # quadrangle misses the ovoid and the girth stays exactly 8.
    "q4-ovoid-delete": (
        gq_q4,
        ovoid_hyperplane,
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
    g = hyperplane_delete(host(field), Hyperplane(coeffs(field)))
    m, n, girth_expected, order = contract(q)
    expect_biregular(g, m, n, girth_expected, order, family)
    g.meta.update(construction=family, family=family, m=m, n=n)
    return g
