import math

import pytest

from conftest import (
    octonion_hexagon_lines, parabolic6_lines, quadric_form, zorn, zorn_is_zero, zorn_mul,
)

from bbcage import polygons, projective
from bbcage.deletions import construct_named
from bbcage.gf import Field, field_new
from bbcage.graphs import ConstructionError, diameter, expect_biregular, girth, levi
from bbcage.incidence import IncidenceStructure
from bbcage.polygons import (
    gq_q4,
    gq_q5,
    ovoid_hyperplane,
    quadric_structure,
    split_cayley_hexagon,
)
from bbcage.projective import (
    GeometryError,
    Hyperplane,
    elliptic_form,
    hyperplane_section,
    parabolic_form,
    pg_points,
    quadric_points,
)

F2 = field_new(2, 1)
F3 = field_new(3, 1)
F4 = field_new(2, 2)


@pytest.mark.parametrize("q,count", [(2, 15), (3, 40), (4, 85)])
def test_gq_q4_counts(q, count):
    s = gq_q4(field_new(2, 2) if q == 4 else field_new(q, 1))
    assert s.num_points == count
    assert s.num_blocks == count
    assert levi(s).degree_sets() == ({q + 1}, {q + 1})


def test_gq_q5_counts():
    s2 = gq_q5(F2)
    assert (s2.num_points, s2.num_blocks) == (27, 45)
    assert levi(s2).degree_sets()[0] == {5}  # q^2 + 1
    s3 = gq_q5(F3)
    assert (s3.num_points, s3.num_blocks) == (112, 280)
    assert levi(s3).degree_sets() == ({10}, {4})


def test_gq_caps():
    with pytest.raises(GeometryError):
        gq_q4(field_new(7, 1))
    with pytest.raises(GeometryError):
        split_cayley_hexagon(F4)


@pytest.mark.parametrize("build,form", [(gq_q4, "parabolic_form"), (gq_q5, "elliptic_form")])
def test_gq_cap_refused_before_the_form_is_built(monkeypatch, build, form):
    # the cap comes first, so no form is built for an order over it
    def never_built(*args):
        raise AssertionError(f"{form} built past the cap")

    monkeypatch.setattr(polygons, form, never_built)
    with pytest.raises(GeometryError, match=r"^generalized quadrangles are capped at q <= 5$"):
        build(field_new(7, 1))


def test_certify_q43():
    # a generalized quadrangle of order (s, t): degrees (t+1, s+1), girth 8,
    # diameter 4
    g = levi(gq_q4(F3))
    assert g.degrees() == (4, 4)
    assert girth(g) == 8
    assert diameter(g) == 4


def test_certify_q52():
    g = levi(gq_q5(F2))
    assert g.degrees() == (5, 3)  # order (2, 4)
    assert girth(g) == 8
    assert diameter(g) == 4


def test_certify_wrong_gonality_fails():
    # the hexagon contract refuses a quadrangle: Q(4,2) has girth 8, not 12
    g = levi(gq_q4(F2))
    with pytest.raises(ConstructionError, match="girth 8 != expected 12"):
        expect_biregular(g, 3, 3, 12, 30, "hexagon")


def test_hexagon_q2():
    s = split_cayley_hexagon(F2)
    assert (s.num_points, s.num_blocks) == (63, 63)
    g = levi(s)
    assert g.degrees() == (3, 3)  # order (2, 2)
    assert girth(g) == 12
    assert diameter(g) == 6


def test_levi_is_one_graph_per_structure():
    s = split_cayley_hexagon(F3)
    assert levi(s) is levi(s)
    # the hexagon was measured when it was built: the stored girth and
    # diameter come back with the graph
    assert (levi(s)._girth, levi(s)._diameter) == (12, 6)
    copy = IncidenceStructure(s.points, s.blocks, tag=s.tag)
    assert levi(copy) is not levi(s)
    assert levi(copy).adj_a == levi(s).adj_a


def test_hexagon_q3_counts():
    s = split_cayley_hexagon(F3)
    assert (s.num_points, s.num_blocks) == (364, 364)
    assert levi(s).degree_sets() == ({4}, {4})


def test_hexagon_lines_lie_on_quadric():
    s = split_cayley_hexagon(F2)
    pts, quadric_lines = parabolic6_lines(F2)
    assert s.points == tuple(pts)
    assert set(s.blocks) <= set(quadric_lines)


@pytest.mark.parametrize("field", [F2, F3])
def test_octonion_product_anticommutes_on_quadric_lines(field):
    # the octonion oracle tests x*y only, because y*x = -(x*y) for any two
    # points x, y of one line of Q(6,q), in every characteristic
    def neg(z):
        a, v, w, b = z
        return field.neg(a), tuple(map(field.neg, v)), tuple(map(field.neg, w)), field.neg(b)

    pts, lines = parabolic6_lines(field)
    octonions = [zorn(c, field) for c in pts]
    nonzero = 0
    for blk in lines:
        for i, a in enumerate(blk):
            for b in blk[i + 1 :]:
                xy = zorn_mul(octonions[a], octonions[b], field)
                assert zorn_mul(octonions[b], octonions[a], field) == neg(xy)
                nonzero += not zorn_is_zero(xy)
    assert nonzero  # some quadric lines are not hexagon lines


@pytest.mark.parametrize("field", [F2, F3])
def test_zorn_rows_match_octonion_product(field):
    # row k of the kernel matrix of x, dotted with y, is entry k of x.y
    pts = [p.coords for p in quadric_points(parabolic_form(6, field), field)]
    octonions = [zorn(c, field) for c in pts]
    for x, zx in zip(pts, octonions):
        rows = polygons._zorn_rows(x, field)
        for y, zy in zip(pts, octonions):
            a, v, w, b = zorn_mul(zx, zy, field)
            assert [field.dot(r, y) for r in rows] == [a, *v, *w, b]


@pytest.mark.parametrize("field", [F2, F3])
def test_hexagon_lines_match_octonion_filter(field):
    s = split_cayley_hexagon(field)
    assert list(s.blocks) == octonion_hexagon_lines(field)


@pytest.mark.parametrize("field,q", [(F2, 2), (F3, 3)])
def test_ovoid(field, q):
    s = gq_q4(field)
    h = Hyperplane(ovoid_hyperplane(field))
    ovoid, lines_inside, _ = hyperplane_section(s.points, s.blocks, h, field)
    assert len(ovoid) == q * q + 1 and not lines_inside
    oset = set(ovoid)
    # exhaustive pair check: no two ovoid points share a line
    for blk in s.blocks:
        assert len(oset.intersection(blk)) <= 1
    # every line meets the ovoid exactly once
    assert all(len(oset.intersection(blk)) == 1 for blk in s.blocks)


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_ovoid_search_sections_each_hyperplane_once(monkeypatch, field):
    calls = []
    real = polygons.hyperplane_section

    def counted(*args):
        calls.append(args[2].coeffs)
        return real(*args)

    monkeypatch.setattr(polygons, "hyperplane_section", counted)
    ovoid_hyperplane.cache_clear()
    coeffs = ovoid_hyperplane(field)
    assert ovoid_hyperplane(field) == coeffs
    # the search sections hyperplanes in point order up to the accepted one,
    # and a second call sections nothing
    hyperplanes = [p.coords for p in pg_points(4, field)]
    assert calls == hyperplanes[: hyperplanes.index(coeffs) + 1]


def test_levi_of_polygons_girth():
    assert girth(levi(gq_q4(F2))) == 8
    assert girth(levi(gq_q5(F2))) == 8


def test_cached_structures_are_read_only():
    s = gq_q4(F3)
    assert s.tag["order"] == (3, 3) and s.tag["gonality"] == 4
    with pytest.raises(AttributeError):
        s.blocks.pop()
    with pytest.raises(AttributeError):
        s.point_blocks[0].append(0)
    with pytest.raises(TypeError):
        s.tag["order"] = (2, 2)
    assert construct_named("q4-hyperbolic-prune", 3).n_vertices == 56


def test_certify_disconnected_structure():
    # two disjoint triangles: each is a generalized 3-gon, and together they
    # pass the 3-gon contract (degrees 2, girth 6, order 12), but they are
    # not connected, so the diameter that a polygon also needs is infinite
    blocks = [(a + o, b + o) for o in (0, 3) for a, b in ((0, 1), (0, 2), (1, 2))]
    g = levi(IncidenceStructure(range(6), blocks))
    assert expect_biregular(g, 2, 2, 6, 12, "two triangles") is g
    assert diameter(g) == math.inf


@pytest.mark.parametrize("tag", ["parabolic-4", "elliptic-5", "parabolic-6"])
@pytest.mark.parametrize("field", [F2, F3, F4])
def test_quadric_structure_points_are_the_quadric_points(tag, field):
    # the points are read off the quadric lines: none is missed
    form = quadric_form(tag, field)
    expected = tuple(p.coords for p in quadric_points(form, field))
    assert quadric_structure(form, field).points == expected


def test_quadric_structure_evaluates_the_form_once(monkeypatch):
    dots, passes = [], []
    real_dot, real_points = Field.dot, projective.quadric_points

    def counted_dot(self, u, v):
        dots.append(1)
        return real_dot(self, u, v)

    def counted_points(*args):
        passes.append(1)
        return real_points(*args)

    monkeypatch.setattr(Field, "dot", counted_dot)
    monkeypatch.setattr(projective, "quadric_points", counted_points)
    monkeypatch.setattr(polygons, "quadric_points", counted_points)
    quadric_structure(elliptic_form(F4), F4)
    assert len(passes) == 1
    # 6 per point of Q(5, 4) for its polar hyperplane; the form itself is
    # summed over its nonzero terms with no dot product
    assert len(dots) == 325 * 6 == 1950
