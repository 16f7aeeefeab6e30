"""Classical generalized quadrangles Q(4,q), Q(5,q) and the split Cayley
hexagon as incidence structures, plus ovoids; each is accepted by the
construction contract of graphs (expect, expect_biregular).

The hexagon lives on the parabolic quadric of PG(6, q).  That quadric is
exactly the norm-zero locus of trace-zero split octonions (Zorn vector
matrices with a = X0, v = (X1, X3, X5), w = (X2, X4, X6), b = -X0), and two
points x, y are collinear in the hexagon exactly when the octonion product
x.y vanishes.  For fixed x that is linear in y, so the points collinear with
x are the plane where the 8 x 7 matrix of y -> x.y vanishes, and the lines
are read off these planes as for the quadrangles.  The hexagon is accepted
by the one construction contract, expect_biregular, on its incidence graph
(degrees q+1, girth 12 and the order), plus diameter 6 measured on the same
graph, which every later caller reuses through levi.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .gf import Field
from .graphs import ConstructionError, diameter, expect, expect_biregular, levi
from .incidence import IncidenceStructure
from .projective import (
    GeometryError,
    Hyperplane,
    QuadraticForm,
    elliptic_form,
    hyperplane_section,
    parabolic_form,
    perp_lines,
    perp_masks,
    pg_points,
    polar_perps,
    quadric_points,
)

GQ_MAX_Q = 5
HEXAGON_Q = (2, 3)

# The host polygons by name, each mapped to the name of its builder in this
# module.  Callers look the builder up by that name when they call it, so
# the function bound to the name then is the one that runs.
HOSTS = {"q4": "gq_q4", "q5": "gq_q5", "hexagon": "split_cayley_hexagon"}


def quadric_structure(form: QuadraticForm, field: Field, **tags) -> IncidenceStructure:
    """The generalized polygon on the quadric of form, locally re-indexed:
    every line of Q(4,q) (parabolic_form(4, field)) or Q(5,q)
    (elliptic_form(field)), or the split Cayley hexagon's lines on the points
    of Q(6,q) (parabolic_form(6, field)).  The lines are perp_lines of the
    point perps: the polar perps on a quadrangle, the Zorn kernels
    (_zorn_rows) on the hexagon, whose q+1 lines through a point fill the
    plane x.y = 0.  Any further tag entries (a polygon's family, order and
    gonality) are set at construction, since the tag is read-only."""
    points = tuple(p.coords for p in quadric_points(form, field))
    if form.dim == 6:
        q = field.q
        perps = perp_masks(points, field, partial(_zorn_rows, field=field), q * q + q + 1)
    else:
        perps = polar_perps(form, points, field)
    return IncidenceStructure(
        points,
        perp_lines(perps),
        tag={"family": f"quadric:{form.tag}", "q": field.q, "field": field, **tags},
    )


def _quadrangle(
    field: Field, form: QuadraticForm, family: str, e: int
) -> IncidenceStructure:
    """The classical generalized quadrangle of order (q, q^e) on the quadric
    of form: (q+1)(q^(e+1)+1) points and (q^e+1)(q^(e+1)+1) lines."""
    q = field.q
    s = quadric_structure(form, field, family=family, order=(q, q ** e), gonality=4)
    expect(s.num_points == (q + 1) * (q ** (e + 1) + 1), f"{family} point count")
    expect(s.num_blocks == (q ** e + 1) * (q ** (e + 1) + 1), f"{family} line count")
    return s


def _gq_field(field: Field) -> Field:
    """field, once its order is within GQ_MAX_Q: checked before a
    quadrangle's form is built, so an order over the cap is refused before
    any geometry is made."""
    if field.q > GQ_MAX_Q:
        raise GeometryError(f"generalized quadrangles are capped at q <= {GQ_MAX_Q}")
    return field


@lru_cache(maxsize=None)
def gq_q4(field: Field) -> IncidenceStructure:
    """The classical generalized quadrangle of order (q, q) on the parabolic
    quadric of PG(4, q); (q+1)(q^2+1) points and as many lines."""
    return _quadrangle(field, parabolic_form(4, _gq_field(field)), "Q(4,q)", 1)


@lru_cache(maxsize=None)
def gq_q5(field: Field) -> IncidenceStructure:
    """The classical generalized quadrangle of order (q, q^2) on the elliptic
    quadric of PG(5, q)."""
    return _quadrangle(field, elliptic_form(_gq_field(field)), "Q(5,q)", 2)


def _zorn_rows(x, field: Field) -> tuple[tuple[int, ...], ...]:
    """The 8 x 7 matrix of the linear map y -> x.y on Q(6,q) coordinates.

    A point (X0, ..., X6) is the trace-zero Zorn vector matrix with a = X0,
    v = (X1, X3, X5), w = (X2, X4, X6) and b = -X0, and
    x.y = (a a' + v.w', a v' + b' v - w x w', a' w + b w' + v x v', b b' + w.v').
    The rows give the a entry, the three v entries, the three w entries and
    the b entry of x.y, each as coefficients of y's coordinates.
    """
    x0, x1, x2, x3, x4, x5, x6 = x
    n = field.neg
    return (
        (x0, 0, x1, 0, x3, 0, x5),
        (n(x1), x0, 0, 0, x6, 0, n(x4)),
        (n(x3), 0, n(x6), x0, 0, 0, x2),
        (n(x5), 0, x4, 0, n(x2), x0, 0),
        (x2, 0, n(x0), n(x5), 0, x3, 0),
        (x4, x5, 0, 0, n(x0), n(x1), 0),
        (x6, n(x3), 0, x1, 0, 0, n(x0)),
        (x0, x2, 0, x4, 0, x6, 0),
    )


@lru_cache(maxsize=None)
def split_cayley_hexagon(field: Field) -> IncidenceStructure:
    """The split Cayley hexagon of order (q, q), q in {2, 3}.

    Points are every point of the parabolic quadric in PG(6, q); y is
    collinear with x exactly when the split-octonion product x.y vanishes
    (Tits 1959), so the lines come from the Zorn kernels (quadric_structure).
    Its incidence graph must be a generalized hexagon's (biregular of degree
    q+1, girth 12, diameter 6, on (q^6-1)/(q-1) points and as many lines) or
    construction aborts.
    """
    q = field.q
    if q not in HEXAGON_Q:
        raise GeometryError(f"hexagon construction is capped at q in {HEXAGON_Q}")
    form = parabolic_form(6, field)
    s = quadric_structure(form, field, family="H(q)", order=(q, q), gonality=6)
    order = 2 * (q ** 6 - 1) // (q - 1)
    g = expect_biregular(levi(s), q + 1, q + 1, 12, order, "hexagon")
    expect(diameter(g) == 6, f"hexagon diameter {diameter(g)} != 6")
    return s


@lru_cache(maxsize=None)
def ovoid_hyperplane(field: Field) -> tuple[int, ...]:
    """The coefficients of the first hyperplane of PG(4, q) whose section of
    Q(4,q) has q^2+1 points and contains no line (an elliptic quadric, which
    is an ovoid).  Each hyperplane is sectioned at most once per field."""
    q = field.q
    s = gq_q4(field)
    for pt in pg_points(4, field):
        h = Hyperplane(pt.coords)
        # hyperplane_section checks each line meets h in one or all points
        ovoid, lines_inside, _ = hyperplane_section(s.points, s.blocks, h, field)
        if len(ovoid) == q * q + 1 and not lines_inside:
            return h.coeffs
    raise ConstructionError(f"no ovoid section found on Q(4,{q})")

