"""Classical generalized quadrangles Q(4,q), Q(5,q) and the split Cayley
hexagon as incidence structures, plus ovoids and polygon certification.

The hexagon lives on the parabolic quadric of PG(6, q).  That quadric is
exactly the norm-zero locus of trace-zero split octonions (Zorn vector
matrices with a = X0, v = (X1, X3, X5), w = (X2, X4, X6), b = -X0), and the
hexagon lines are the quadric lines spanned by points whose octonion product
vanishes.  Certification (biregular, girth 12, diameter 6) is the operational
acceptance oracle for the line filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .gf import Field
from .graphs import BipartiteGraph, bb_check, diameter, girth, levi
from .incidence import IncidenceStructure
from .projective import (
    GeometryError,
    form_by_tag,
    hyperplane_section,
    projective_space,
    quadric_lines,
)

GQ_MAX_Q = 5
HEXAGON_Q = (2, 3)


class ConstructionError(RuntimeError):
    """A construction violated its own mathematical contract."""


@dataclass(frozen=True)
class PolygonCertificate:
    gonality: int
    s: int
    t: int
    num_points: int
    num_lines: int
    connected: bool
    biregular: bool
    girth_ok: bool
    diameter_ok: bool
    girth_measured: int | float
    diameter_measured: int | None

    @property
    def certified(self) -> bool:
        return self.connected and self.biregular and self.girth_ok and self.diameter_ok


def quadric_structure(tag: str, field: Field, **tags) -> IncidenceStructure:
    """Points and full line set of a named quadric, locally re-indexed.  The
    points are read off the lines: every point of Q(4,q), Q(5,q) and Q(6,q)
    lies on a quadric line, and the callers pin the point counts.  Any
    further tag entries (a polygon's family, order and gonality) are set at
    construction, since the tag is read-only."""
    form = form_by_tag(tag, field)
    lines = quadric_lines(form, field)
    ids = sorted(set().union(*lines))
    local = {x: i for i, x in enumerate(ids)}
    space = projective_space(form.dim, field)
    return IncidenceStructure(
        [space.points[x].coords for x in ids],
        [tuple(map(local.__getitem__, line)) for line in lines],
        tag={"family": f"quadric:{tag}", "q": field.q, "field": field, **tags},
    )


def _quadrangle(field: Field, tag: str, family: str, e: int) -> IncidenceStructure:
    """The classical generalized quadrangle of order (q, q^e) on a quadric:
    (q+1)(q^(e+1)+1) points and (q^e+1)(q^(e+1)+1) lines."""
    q = field.q
    if q > GQ_MAX_Q:
        raise GeometryError(f"generalized quadrangles are capped at q <= {GQ_MAX_Q}")
    s = quadric_structure(tag, field, family=family, order=(q, q ** e), gonality=4)
    expect(s.num_points == (q + 1) * (q ** (e + 1) + 1), f"{family} point count")
    expect(s.num_blocks == (q ** e + 1) * (q ** (e + 1) + 1), f"{family} line count")
    return s


@lru_cache(maxsize=None)
def gq_q4(field: Field) -> IncidenceStructure:
    """The classical generalized quadrangle of order (q, q) on the parabolic
    quadric of PG(4, q); (q+1)(q^2+1) points and as many lines."""
    return _quadrangle(field, "parabolic-4", "Q(4,q)", 1)


@lru_cache(maxsize=None)
def gq_q5(field: Field) -> IncidenceStructure:
    """The classical generalized quadrangle of order (q, q^2) on the elliptic
    quadric of PG(5, q)."""
    return _quadrangle(field, "elliptic-5", "Q(5,q)", 2)


def _zorn(coords, field: Field):
    a = coords[0]
    return (
        a,
        (coords[1], coords[3], coords[5]),
        (coords[2], coords[4], coords[6]),
        field.neg(a),
    )


def _cross(u, v, field: Field):
    m, s = field.mul, field.sub
    return (
        s(m(u[1], v[2]), m(u[2], v[1])),
        s(m(u[2], v[0]), m(u[0], v[2])),
        s(m(u[0], v[1]), m(u[1], v[0])),
    )


def _zorn_mul(x, y, field: Field):
    a1, v1, w1, b1 = x
    a2, v2, w2, b2 = y
    m, add, sub = field.mul, field.add, field.sub
    cw = _cross(w1, w2, field)
    cv = _cross(v1, v2, field)
    a = add(m(a1, a2), field.dot(v1, w2))
    v = tuple(sub(add(m(a1, v2[i]), m(b2, v1[i])), cw[i]) for i in range(3))
    w = tuple(add(add(m(a2, w1[i]), m(b1, w2[i])), cv[i]) for i in range(3))
    b = add(m(b1, b2), field.dot(w1, v2))
    return a, v, w, b


def _zorn_is_zero(x) -> bool:
    a, v, w, b = x
    return a == 0 and b == 0 and not any(v) and not any(w)


@lru_cache(maxsize=None)
def split_cayley_hexagon(field: Field) -> IncidenceStructure:
    """The split Cayley hexagon of order (q, q), q in {2, 3}.

    Points are every point of the parabolic quadric in PG(6, q); the lines are
    the quadric lines on which the split-octonion product vanishes.  The
    result must certify as a generalized hexagon or construction aborts.
    """
    q = field.q
    if q not in HEXAGON_Q:
        raise GeometryError(f"hexagon construction is capped at q in {HEXAGON_Q}")
    base = quadric_structure("parabolic-6", field)
    # x and y below are trace-zero, norm-zero octonions on one quadric line,
    # so B(x, y) = N(x+y) - N(x) - N(y) = 0.  Linearizing z^2 - T(z)z + N(z) = 0
    # at z = x + y gives xy + yx = T(x)y + T(y)x - B(x, y) = 0 in every
    # characteristic: yx = -(xy), so testing xy alone also tests yx.
    kept = []
    for blk in base.blocks:
        x = _zorn(base.points[blk[0]], field)
        y = _zorn(base.points[blk[1]], field)
        if _zorn_is_zero(_zorn_mul(x, y, field)):
            kept.append(blk)
    tag = {**base.tag, "family": "H(q)", "order": (q, q), "gonality": 6}
    s = IncidenceStructure(base.points, kept, tag=tag)
    cert = polygon_certify(s, 6)
    if not cert.certified:
        raise ConstructionError(f"hexagon line filter failed certification: {cert}")
    expect(s.num_points == (q ** 6 - 1) // (q - 1), "hexagon point count")
    expect(s.num_blocks == s.num_points, "hexagon line count")
    return s


def polygon_certify(structure: IncidenceStructure, r: int) -> PolygonCertificate:
    """Certify a structure as a generalized r-gon via its incidence graph:
    connected, biregular, girth 2r, diameter r.  Flags are only set from
    measurements."""
    if structure.num_points == 0 or structure.num_blocks == 0:
        raise GeometryError("cannot certify an empty structure")
    g = levi(structure)
    pair = g.degrees()
    t_val, s_val = (pair[0] - 1, pair[1] - 1) if pair else (-1, -1)
    gi = girth(g)
    diam = diameter(g)
    connected = diam != math.inf
    return PolygonCertificate(
        gonality=r,
        s=s_val,
        t=t_val,
        num_points=structure.num_points,
        num_lines=structure.num_blocks,
        connected=connected,
        biregular=pair is not None,
        girth_ok=(gi == 2 * r),
        diameter_ok=(diam == r),
        girth_measured=gi,
        diameter_measured=diam if connected else None,
    )


@lru_cache(maxsize=None)
def ovoid_hyperplane(field: Field) -> tuple[int, ...]:
    """The coefficients of the first hyperplane of PG(4, q) whose section of
    Q(4,q) has q^2+1 points and contains no line (an elliptic quadric, which
    is an ovoid).  Each hyperplane is sectioned at most once per field."""
    q = field.q
    s = gq_q4(field)
    for h in projective_space(4, field).hyperplanes():
        # hyperplane_section checks each line meets h in one or all points
        ovoid, lines_inside, _ = hyperplane_section(s.points, s.blocks, h, field)
        if len(ovoid) == q * q + 1 and not lines_inside:
            return h.coeffs
    raise ConstructionError(f"no ovoid section found on Q(4,{q})")


def expect(cond: bool, what: str):
    """The one place a construction reports a violated invariant."""
    if not cond:
        raise ConstructionError(f"violated invariant: {what}")


def expect_biregular(
    g: BipartiteGraph, m: int, n: int, girth_expected: int, order: int, what: str
) -> BipartiteGraph:
    """The contract of a construction: order vertices, degrees {m}/{n} and
    girth exactly girth_expected (bb_check); anything else aborts."""
    expect(g.n_vertices == order, f"{what} order {g.n_vertices} != {order}")
    rep = bb_check(g, m, n, girth_expected)
    expect(rep.passed, f"{what}: {rep.violation}")
    return g
