import hashlib
import itertools
import random
import tracemalloc

import pytest

from conftest import (
    conic_oval, inverse, lines_in, parabolic6_lines, pg_space, quadric_form, scan_section,
)

from bbcage import projective
from bbcage.deletions import hyperplane_delete
from bbcage.gf import field_new, field_of_order
from bbcage.incidence import IncidenceStructure, point_stars
from bbcage.polygons import gq_q4, gq_q5, quadric_structure, split_cayley_hexagon
from bbcage.projective import (
    GeometryError,
    Hyperplane,
    elliptic_form,
    hyperplane_section,
    parabolic_form,
    pg_points,
    polar_perps,
    quadric_points,
)

F2 = field_new(2, 1)
F3 = field_new(3, 1)
F4 = field_new(2, 2)
F5 = field_new(5, 1)


def test_point_counts():
    assert len(pg_points(2, F2)) == 7
    assert len(pg_points(4, F3)) == 121
    assert len(pg_points(6, F2)) == 127
    assert len(pg_points(3, F4)) == 85


def test_dimension_domain():
    with pytest.raises(GeometryError):
        pg_points(1, F2)
    with pytest.raises(GeometryError):
        pg_points(7, F2)


def test_points_normalized_unique_and_ordered():
    points = pg_points(3, F3)
    assert type(points) is tuple and pg_points(3, F3) is points
    coords = [p.coords for p in points]
    assert coords == sorted(coords)
    assert len(set(coords)) == len(coords)
    for c in coords:
        lead = next(x for x in c if x)
        assert lead == 1
    assert coords[0] == (0, 0, 0, 1)


def test_line_through_fano():
    space = pg_space(2, F2)
    a = space.id_of((1, 0, 0))
    b = space.id_of((0, 1, 0))
    line = space.line_through(a, b)
    want = {space.id_of((1, 0, 0)), space.id_of((0, 1, 0)), space.id_of((1, 1, 0))}
    assert set(line) == want


def test_line_size_and_uniqueness():
    space = pg_space(3, F3)
    line = space.line_through(0, 17)
    assert len(line) == 4
    with pytest.raises(GeometryError):
        space.line_through(5, 5)


def test_pg23_has_13_lines():
    # oracle: dedup all pairs
    space = pg_space(2, F3)
    lines = {space.line_through(i, j) for i, j in itertools.combinations(range(13), 2)}
    assert len(lines) == 13
    assert all(len(l) == 4 for l in lines)


def test_two_points_one_line():
    space = pg_space(2, F3)
    for i, j in itertools.combinations(range(len(space.points)), 2):
        lines = [
            l
            for l in (space.line_through(i, k) for k in range(len(space.points)) if k != i)
            if j in l
        ]
        assert all(l == lines[0] for l in lines)


def test_quadric_point_counts():
    assert len(quadric_points(parabolic_form(4, F2), F2)) == 15
    assert len(quadric_points(parabolic_form(4, F3), F3)) == 40
    assert len(quadric_points(parabolic_form(6, F2), F2)) == 63
    assert len(quadric_points(elliptic_form(F2), F2)) == 27
    assert len(quadric_points(elliptic_form(F3), F3)) == 112


def _pg_lines(form, field):
    """The lines of quadric_structure(form, field) in PG(d, q) point ids: its
    points are the quadric points, in order (see test_polygons)."""
    ids = [p.id for p in quadric_points(form, field)]
    return [tuple(map(ids.__getitem__, b)) for b in quadric_structure(form, field).blocks]


def test_quadric_line_counts():
    assert len(_pg_lines(parabolic_form(4, F2), F2)) == 15
    assert len(_pg_lines(parabolic_form(4, F3), F3)) == 40
    assert len(_pg_lines(elliptic_form(F2), F2)) == 45
    assert len(_pg_lines(elliptic_form(F3), F3)) == 280


def test_quadric_lines_exhaustive_crosscheck_q2():
    # independent oracle: every line of PG(4, 2), deduplicated over all pairs
    form = parabolic_form(4, F2)
    space = pg_space(4, F2)
    on = {p.id for p in quadric_points(form, F2)}
    pairs = itertools.combinations(range(len(space.points)), 2)
    all_on = {
        line
        for line in {space.line_through(i, j) for i, j in pairs}
        if all(x in on for x in line)
    }
    assert all_on == set(_pg_lines(form, F2))


@pytest.mark.parametrize(
    "tag,q",
    [(t, q) for t in ("parabolic-4", "elliptic-5", "parabolic-6") for q in (2, 3, 4)]
    + [("parabolic-4", 5), ("elliptic-5", 5)],
)
def test_quadric_lines_match_generic_walk(tag, q):
    # the ANDs of polar perps give exactly the lines the generic walk finds
    field = field_of_order(q)
    form = quadric_form(tag, field)
    ids = [p.id for p in quadric_points(form, field)]
    walk = lines_in(pg_space(form.dim, field), ids)
    if form.dim == 6:
        # Q(6,q) contains planes, so polar perps do not give its lines; each
        # of its points lies on (q+1)(q^2+1) lines, the points of Q(4,q)
        coords = tuple(p.coords for p in quadric_points(form, field))
        with pytest.raises(GeometryError, match="contains planes"):
            polar_perps(form, coords, field)
        assert len(walk) == len(ids) * (q * q + 1)
    else:
        assert _pg_lines(form, field) == walk


def _double_sum(form, x, f):
    """Q(x) = the sum over i <= j of m_ij x_i x_j, zero terms included."""
    acc = 0
    for i, j in itertools.combinations_with_replacement(range(form.dim + 1), 2):
        acc = f.add(acc, f.mul(form.matrix[i][j], f.mul(x[i], x[j])))
    return acc


def test_quadric_lines_lie_on_quadric():
    form = elliptic_form(F3)
    points = pg_points(5, F3)
    for line in _pg_lines(form, F3):
        for x in line:
            assert _double_sum(form, points[x].coords, F3) == 0


@pytest.mark.parametrize(
    "tag,q",
    [(t, q) for t in ("parabolic-4", "elliptic-5", "parabolic-6") for q in (2, 3, 4, 5)]
    + [(t, q) for t in ("parabolic-4", "elliptic-5") for q in (8, 9)],
)
def test_quadric_points_match_double_sum(tag, q):
    # the quadric is every point of PG(d, q) where the full double sum
    # vanishes: (q^4 - 1)/(q - 1) points on Q(4,q), (q + 1)(q^3 + 1) on
    # Q(5,q) and (q^6 - 1)/(q - 1) on Q(6,q)
    field = field_of_order(q)
    form = quadric_form(tag, field)
    points = pg_points(form.dim, field)
    on = [p for p in points if _double_sum(form, p.coords, field) == 0]
    size = {4: (q**4 - 1) // (q - 1), 5: (q + 1) * (q**3 + 1), 6: (q**6 - 1) // (q - 1)}
    assert quadric_points(form, field) == on
    assert len(on) == size[form.dim]


def _structure(form, field):
    """Every line of the quadrangle on the quadric of form, on its points."""
    s = quadric_structure(form, field)
    return list(s.points), list(s.blocks)


def test_hyperplane_section_q43_hyperbolic():
    pts, blocks = _structure(parabolic_form(4, F3), F3)
    inside, lines_in, tangent = hyperplane_section(
        pts, blocks, Hyperplane((1, 0, 0, 0, 0)), F3
    )
    assert len(inside) == 16  # (q+1)^2
    assert len(lines_in) == 8  # 2(q+1)
    assert len(lines_in) + len(tangent) == len(blocks)


def test_hyperplane_section_q62():
    pts, blocks = parabolic6_lines(F2)  # Q(6,q) has more lines than the hexagon
    inside, lines_in, tangent = hyperplane_section(
        pts, blocks, Hyperplane((1, 0, 0, 0, 0, 0, 0)), F2
    )
    assert len(inside) == 35
    # every point of the hyperbolic section lies on (q+1)^2 = 9 of its lines:
    # 35 * 9 / 3 = 105
    assert len(lines_in) == 105
    assert len(lines_in) + len(tangent) == len(blocks)


def test_hyperplane_section_elliptic_on_q42():
    pts, blocks = _structure(parabolic_form(4, F2), F2)
    found = None
    for h in [Hyperplane(p.coords) for p in pg_points(4, F2)]:
        inside, lines_in, _ = hyperplane_section(pts, blocks, h, F2)
        if len(inside) == 5 and not lines_in:
            found = h
            break
    assert found is not None


def test_hyperplane_section_violation_reported():
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    blocks = [(0, 1, 2)]  # meets X0 = 0 in two of three points
    with pytest.raises(GeometryError):
        hyperplane_section(pts, blocks, Hyperplane((1, 0, 0)), F2)


# X0 = 0 in PG(2, 2) holds at points 1 and 2 of these three, not at point 0
_TRIANGLE = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
_X0 = Hyperplane((1, 0, 0))


def test_hyperplane_section_zero_point_block_reported():
    with pytest.raises(GeometryError, match=r"^block 1 meets the hyperplane in 0 of 2 points$"):
        hyperplane_section(_TRIANGLE, [(1, 2), (0, 0)], _X0, F2)


@pytest.mark.parametrize("bad", [-1, 3])
def test_hyperplane_section_rejects_point_ids_outside_structure(bad):
    # the per-block scan took (1, bad) for a tangent block
    blocks = [(1, 2), (1, bad)]
    assert scan_section(_TRIANGLE, blocks, _X0, F2) == ([1, 2], [0], [1])
    with pytest.raises(GeometryError, match=rf"^block 1 has out-of-range point index {bad}$"):
        hyperplane_section(_TRIANGLE, blocks, _X0, F2)


# Five full blocks hide one violation, or two; the error names the first.
_FULL = [(1, 2)] * 5


@pytest.mark.parametrize(
    "blocks,error",
    [
        (_FULL + [(0, 1, 2)], "block 5 meets the hyperplane in 2 of 3 points"),
        (_FULL + [(0,), (0, 1, 2)], "block 5 meets the hyperplane in 0 of 1 points"),
        (_FULL + [(0, 1, 2), (0,)], "block 5 meets the hyperplane in 2 of 3 points"),
    ],
)
def test_hyperplane_section_names_the_first_violation(blocks, error):
    for b in (blocks, tuple(blocks)):
        with pytest.raises(GeometryError, match=rf"^{error}$"):
            hyperplane_section(_TRIANGLE, b, _X0, F2)
        with pytest.raises(GeometryError, match=rf"^{error}$"):
            scan_section(_TRIANGLE, b, _X0, F2)


def test_hyperplane_section_counts_repeated_points():
    # a block naming a point of h twice meets h twice there
    blocks = [(1, 1), (2, 1, 2), (1, 0, 0), (1, 1, 1)]
    want = ([1, 2], [0, 1, 3], [2])
    assert hyperplane_section(_TRIANGLE, blocks, _X0, F2) == want
    assert scan_section(_TRIANGLE, blocks, _X0, F2) == want
    for bad, k in (((1, 1, 0), 2), ((0, 1, 1, 1), 3), ((0, 0), 0)):
        with pytest.raises(GeometryError, match=rf"^block 1 meets the hyperplane in {k} of"):
            hyperplane_section(_TRIANGLE, [(1, 2), bad], _X0, F2)


def test_members_and_mask_of_invert_bits():
    # _members lists the set bits in one pass; summing their powers of two
    # gives the mask back
    rng = random.Random(20)
    ids = tuple(range(3000))
    masks = [0, 1, (1 << 3000) - 1]
    for n in (1, 64, 1105, 3000):
        masks.append(sum(1 << rng.randrange(n) for _ in range(5)))  # sparse
        masks.append(rng.getrandbits(n) | rng.getrandbits(n))  # dense
    for m in masks:
        got = projective._members(m, ids)
        assert got == projective._bits(m)
        assert sum(1 << i for i in got) == m


@pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
def test_block_lists_read_every_wth_bit(w):
    # the block lists are read off one inside mask: 200 blocks of sizes up
    # to 2^w - 1, each drawn inside X0 = 0 or meeting it once, in both
    # orders and with the last block of each kind
    rng = random.Random(w)
    for last in (0, 1):
        kinds = [rng.randrange(2) for _ in range(199)] + [last]
        blocks = []
        for inside, k in zip(kinds, [2**w - 1] + [rng.randrange(1, 2**w) for _ in kinds[1:]]):
            blk = [rng.choice((1, 2)) for _ in range(k)]
            blocks.append(tuple(blk) if inside else (blk[0],) + (0,) * (k - 1))
        kinds = [k or len(b) == 1 for k, b in zip(kinds, blocks)]  # one point: inside
        want = ([1, 2], [i for i, k in enumerate(kinds) if k], [i for i, k in enumerate(kinds) if not k])
        assert hyperplane_section(_TRIANGLE, blocks, _X0, F2) == want
        assert scan_section(_TRIANGLE, blocks, _X0, F2) == want


# Blocks of 17 points, with repeats: counts of 16 and 15 beside blocks fully
# inside, and an empty block.
_WIDE = [(1,) * 9 + (2,) * 8, (1,) + (0,) * 16, (2, 2) * 8, (0,) * 15 + (2,), ()]


def test_hyperplane_section_counts_in_five_bit_fields():
    want = ([1, 2], [0, 2, 4], [1, 3])
    for blocks in (_WIDE, tuple(_WIDE)):
        assert hyperplane_section(_TRIANGLE, blocks, _X0, F2) == want
        assert scan_section(_TRIANGLE, blocks, _X0, F2) == want
    for bad, k in (((1, 1) + (0,) * 15, 2), ((2,) * 16 + (0,), 16), ((1,) * 15 + (0, 0), 15)):
        with pytest.raises(GeometryError, match=rf"^block 2 meets the hyperplane in {k} of 17"):
            hyperplane_section(_TRIANGLE, _WIDE[:2] + [bad], _X0, F2)


def test_hyperplane_section_one_point_and_empty_blocks():
    blocks = [(), (1,), (2,), (0, 1), ()]
    # a one-point block on h is inside it, never tangent
    want = ([1, 2], [0, 1, 2, 4], [3])
    assert hyperplane_section(_TRIANGLE, blocks, _X0, F2) == want
    assert scan_section(_TRIANGLE, blocks, _X0, F2) == want
    with pytest.raises(GeometryError, match=r"^block 2 meets the hyperplane in 0 of 1 points$"):
        hyperplane_section(_TRIANGLE, [(), (1,), (0,)], _X0, F2)


def test_hyperplane_section_takes_lists_of_lists():
    pts, blocks = _structure(parabolic_form(4, F3), F3)
    for h in [Hyperplane(p.coords) for p in pg_points(4, F3)[:40]]:
        want = hyperplane_section(pts, blocks, h, F3)
        assert hyperplane_section(pts, [list(b) for b in blocks], h, F3) == want


def test_hyperplane_section_sees_blocks_mutated_between_calls():
    blocks = [[1, 2], [0, 1]]
    assert hyperplane_section(_TRIANGLE, blocks, _X0, F2) == ([1, 2], [0], [1])
    blocks.append([2])
    assert hyperplane_section(_TRIANGLE, blocks, _X0, F2) == ([1, 2], [0, 2], [1])
    blocks[1].append(2)
    with pytest.raises(GeometryError, match=r"^block 1 meets the hyperplane in 2 of 3 points$"):
        hyperplane_section(_TRIANGLE, blocks, _X0, F2)
    blocks[1][:] = [0, 1]
    blocks[0][0] = 0
    assert hyperplane_section(_TRIANGLE, blocks, _X0, F2) == ([1, 2], [2], [0, 1])


def test_hyperplane_section_sees_tuples_of_lists_mutated_between_calls():
    # only a tuple of tuples is keyed by identity: a tuple of lists can change
    pts, blocks = tuple(map(list, _TRIANGLE)), ([1, 2], [0, 1])
    assert hyperplane_section(pts, blocks, _X0, F2) == ([1, 2], [0], [1])
    blocks[0][0] = 0
    assert hyperplane_section(pts, blocks, _X0, F2) == ([1, 2], [], [0, 1])
    pts[1][0] = 1
    assert hyperplane_section(pts, (), _X0, F2) == ([2], [], [])


def test_hyperplane_section_indexes_a_structure_once(monkeypatch):
    # a structure's tuples of tuples are looked up by identity, not re-hashed
    s = gq_q4(F3)  # built first: building scans its points too
    calls = []
    blocks, masks = projective._block_index, projective._mask_index
    monkeypatch.setattr(projective, "_block_index", lambda c, b, f: calls.append(1) or blocks(c, b, f))
    monkeypatch.setattr(projective, "_mask_index", lambda c, f: calls.append(2) or masks(c, f))
    hyperplanes = [Hyperplane(p.coords) for p in pg_points(4, F3)]
    for h in hyperplanes[:10]:
        assert hyperplane_section(s.points, s.blocks, h, F3) == scan_section(
            s.points, s.blocks, h, F3
        )
    assert calls == [2, 1]
    # lists are indexed again on every call
    for h in hyperplanes[:3]:
        hyperplane_section(list(s.points), list(s.blocks), h, F3)
    assert calls == [2, 1] * 4


# Coefficient vectors that are no hyperplane of PG(4, 3), the space of
# Q(4,3)'s five coordinates: each is refused by name, by the section and so
# by the deletion built on it.
@pytest.mark.parametrize(
    "coeffs,error",
    [
        ((1, 0, 0, 0), "hyperplane has 4 coefficients, the points 5 coordinates"),
        ((1, 0, 0, 0, 0, 2, 2), "hyperplane has 7 coefficients, the points 5 coordinates"),
        ((1, 0, 7, 0, 0), r"hyperplane coefficient 7 is outside 0\.\.2"),
        ((0, 0, 0, 0, 0), "hyperplane coefficients are all 0"),
        ((1.0, 0, 0, 0, 0), r"hyperplane coefficient 1\.0 is not an int"),
        ((0, "1", 0, 0, 0), "hyperplane coefficient '1' is not an int"),
        ((0, 0, 0, 1, None), "hyperplane coefficient None is not an int"),
    ],
    ids=["short", "long", "out-of-field", "zero", "float", "str", "none"],
)
def test_hyperplane_section_rejects_non_hyperplanes(monkeypatch, coeffs, error):
    s = gq_q4(F3)
    with pytest.raises(GeometryError, match=f"^{error}$"):
        hyperplane_section(s.points, s.blocks, Hyperplane(coeffs), F3)
    with pytest.raises(GeometryError, match=f"^{error}$"):
        hyperplane_delete(s, Hyperplane(coeffs))
    # refused before any index is built: lists are indexed on every call
    for name in ("_mask_index", "_block_index"):
        monkeypatch.setattr(projective, name, None)
    with pytest.raises(GeometryError, match=f"^{error}$"):
        hyperplane_section(list(s.points), list(s.blocks), Hyperplane(coeffs), F3)


def test_hyperplane_section_returns_fresh_lists():
    pts, blocks = _structure(parabolic_form(4, F3), F3)
    h = Hyperplane((1, 0, 0, 0, 0))
    first = hyperplane_section(pts, blocks, h, F3)
    want = tuple(list(x) for x in first)
    for x in first:
        x.clear()
    assert hyperplane_section(pts, blocks, h, F3) == want


@pytest.mark.parametrize("build,q", [(gq_q4, 3), (gq_q5, 2), (split_cayley_hexagon, 2)])
def test_list_inputs_are_indexed_on_every_call(monkeypatch, build, q):
    # only a structure's own tuples of tuples are cached, by identity: equal
    # lists of lists give the same sections, each from an index of its own
    s = build(field_of_order(q))
    field = s.tag["field"]
    hyperplanes = [Hyperplane(p.coords) for p in pg_points(len(s.points[0]) - 1, field)]
    want = [hyperplane_section(s.points, s.blocks, h, field) for h in hyperplanes]
    calls = []
    index_blocks, masks = projective._block_index, projective._mask_index
    monkeypatch.setattr(
        projective, "_block_index", lambda c, b, f: calls.append(1) or index_blocks(c, b, f)
    )
    monkeypatch.setattr(projective, "_mask_index", lambda c, f: calls.append(2) or masks(c, f))
    pts, blocks = [list(c) for c in s.points], [list(b) for b in s.blocks]
    for h, sections in zip(hyperplanes, want):
        assert hyperplane_section(pts, blocks, h, field) == sections
        assert scan_section(pts, blocks, h, field) == sections
    assert calls == [2, 1] * len(hyperplanes)


@pytest.mark.parametrize(
    "build,q", [(gq_q4, 3), (gq_q5, 2), (split_cayley_hexagon, 2), (gq_q4, 5)]
)
def test_scan_is_the_dot_product_oracle(build, q):
    # the meet-in-the-middle index over a structure's points, against one
    # field.dot per point, for every hyperplane of its PG(d, q); the memos,
    # which building the polygon's perps filled first, stay within one
    # entry per possible half
    s = build(field_of_order(q))
    field = s.tag["field"]
    index = projective._indexed(projective._mask_index, s.points, field)
    full, rng = (1 << len(s.points)) - 1, random.Random(q)
    for p in pg_points(len(s.points[0]) - 1, field):
        want = sum(1 << i for i, x in enumerate(s.points) if field.dot(p.coords, x) == 0)
        assert projective._scan(index, full, p.coords) == want
        start = rng.getrandbits(len(s.points))
        assert projective._scan(index, start, p.coords) == want & start
    d1, c, lows, highs = len(s.points[0]), index[3], index[4], index[5]
    assert c == d1 // 2
    assert len(lows) <= q ** c and len(highs) <= q ** (d1 - c)


@pytest.mark.parametrize("build,q", [(gq_q4, 3), (gq_q5, 2), (split_cayley_hexagon, 2)])
def test_one_section_of_lists_computes_two_halves(monkeypatch, build, q):
    # a fresh point index and a fresh block index each compute only the two
    # halves the hyperplane asks for; a structure's cached indexes compute
    # each half once
    s = build(field_of_order(q))
    field = s.tag["field"]
    pts, blocks = [list(c) for c in s.points], [list(b) for b in s.blocks]
    h = Hyperplane((0,) * (len(pts[0]) - 2) + (1, 1))
    want = scan_section(pts, blocks, h, field)
    calls = []
    residues = projective._residues
    monkeypatch.setattr(
        projective, "_residues", lambda *a: calls.append(a[1]) or residues(*a)
    )
    assert hyperplane_section(pts, blocks, h, field) == want
    assert len(calls) == 2 + 2
    assert hyperplane_section(pts, blocks, h, field) == want
    assert len(calls) == 8
    calls.clear()
    for _ in range(3):
        assert hyperplane_section(s.points, s.blocks, h, field) == want
    assert len(calls) <= 2 + 2


def test_hyperplane_section_sees_points_mutated_between_calls():
    pts = [list(c) for c in _TRIANGLE]
    assert hyperplane_section(pts, [], _X0, F2) == ([1, 2], [], [])
    pts[1][0] = 1
    assert hyperplane_section(pts, [], _X0, F2) == ([2], [], [])


def test_section_of_20k_blocks_stays_small():
    # 20,000 blocks of 4 points: the block index is linear in the blocks'
    # points, so the section peaks far under an index quadratic in the
    # block count (about 75 MB here)
    blocks = [(1, 2, 1, 2) if i % 3 else (1, 0, 0, 0) for i in range(20_000)]
    want = ([1, 2], [i for i in range(20_000) if i % 3], [i for i in range(20_000) if not i % 3])
    tracemalloc.start()
    try:
        got = hyperplane_section(_TRIANGLE, blocks, _X0, F2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 8 * 2**20


@pytest.mark.parametrize("q", [256, 257])
def test_section_over_wide_fields_matches_block_scan(q):
    # coordinates of one byte (q = 256) or two (q = 257): 60 points of
    # PG(3, q), half of them drawn on h, and blocks inside h, tangent to it,
    # ragged and empty; then a violation
    field, rng = field_of_order(q), random.Random(q)
    h = Hyperplane((rng.randrange(q), rng.randrange(q), rng.randrange(q), rng.randrange(1, q)))
    inv = inverse(field, h.coeffs[3])

    def on_h():
        x = [rng.randrange(q) for _ in range(3)]
        return (*x, field.mul(field.neg(field.dot(h.coeffs[:3], x)), inv))

    pts = [on_h() if i % 2 else tuple(rng.randrange(q) for _ in range(4)) for i in range(60)]
    on = [i for i, x in enumerate(pts) if field.dot(h.coeffs, x) == 0]
    off = [i for i in range(60) if i not in on]
    blocks = []
    for _ in range(200):
        if rng.randrange(2):
            blocks.append(tuple(rng.sample(on, rng.randrange(7))))
        else:
            blocks.append(tuple(rng.sample(off, rng.randrange(6)) + [rng.choice(on)]))
    want = scan_section(pts, blocks, h, field)
    assert want[1] and want[2]
    for b in (blocks, [list(x) for x in blocks]):
        assert hyperplane_section(pts, b, h, field) == want
    bad = blocks + [(on[0], on[1], off[0])]
    with pytest.raises(GeometryError, match=r"^block 200 meets the hyperplane in 2 of 3 points$"):
        hyperplane_section(pts, bad, h, field)


@pytest.mark.parametrize("build,q", [(gq_q4, 3), (gq_q5, 2), (split_cayley_hexagon, 2)])
def test_an_index_holds_every_row_once_built(build, q):
    # an index is a list of one row per coordinate as soon as it is built:
    # rows[i][v] is the mask of the positions whose point has coordinate i
    # equal to v; a scan reads the rows and adds or changes none
    s = build(field_of_order(q))
    field = s.tag["field"]
    pts = [list(c) for c in s.points]
    d1, b = len(pts[0]), len(s.blocks)
    points_at = dict(enumerate(range(len(pts))))
    blocks_at = {j * b + bi: x for bi, blk in enumerate(s.blocks) for j, x in enumerate(blk)}
    for index, at in (
        (projective._mask_index(pts, field), points_at),
        (projective._block_index(pts, s.blocks, field)[0], blocks_at),
    ):
        rows = index[0]
        want = [[0] * q for _ in range(d1)]
        for position, x in at.items():
            for i, v in enumerate(pts[x]):
                want[i][v] |= 1 << position
        assert type(rows) is list and rows == want
        projective._scan(index, index[1], (0,) * (d1 - 2) + (1, 1))
        assert index[0] is rows and rows == want


def test_point_stars():
    assert point_stars(4, [(0, 1), (1, 3), (1, 1)]) == ((0,), (0, 1, 2, 2), (), (1,))
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=rf"^block 1 has out-of-range point index {bad}$"):
            point_stars(4, [(0, 1), (2, bad)])
    s = IncidenceStructure([None] * 4, [(3, 1), (0, 1)])
    assert s.point_blocks == ((1,), (0, 1), (), (0,))
    with pytest.raises(ValueError, match="out-of-range"):
        IncidenceStructure([None] * 4, [(0, 1), (2, 4)])


# SHA-256 of repr(hyperplane_section(...)) over every hyperplane of the
# structure's PG(d, q), in point order; taken from the per-block scan
_SECTION_SHA256 = {
    (gq_q4, 2): "af13a2610c58cd3355f56c96fb6ad1c9b42be29e69606aa0cd897300db9b9a74",
    (gq_q4, 3): "4385dc577bac14e7a0fc6b38b5170e770607c22e7ca50910db460bf708719e00",
    (gq_q5, 2): "cfcb836680b0956629fb5302002e7baf759f326a01d4cea8aa279cda43139133",
    (split_cayley_hexagon, 2): "5264f684cda91c13c522073b0287705c15f690a89fac67a9daaa990712577e11",
}


@pytest.mark.parametrize("build,q", sorted(_SECTION_SHA256, key=lambda k: (k[0].__name__, k[1])))
def test_every_hyperplane_section_pinned(build, q):
    s = build(field_of_order(q))
    field = s.tag["field"]
    digest = hashlib.sha256()
    for p in pg_points(len(s.points[0]) - 1, field):
        h = Hyperplane(p.coords)
        got = hyperplane_section(s.points, s.blocks, h, field)
        assert got == scan_section(s.points, s.blocks, h, field)
        digest.update(repr(got).encode())
    assert digest.hexdigest() == _SECTION_SHA256[build, q]


@pytest.mark.parametrize("field", [F2, F3, F5, field_new(7, 1), F4])
def test_conic_oval(field):
    pts = conic_oval(field)
    assert len(pts) == field.q + 1
    # no three collinear, by walking the line through each pair
    ids = {pt.id for pt in pts}
    space = pg_space(2, field)
    for a, b in itertools.combinations(sorted(ids), 2):
        assert len(ids.intersection(space.line_through(a, b))) == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_join_is_the_hyperplane_through_both_points(q):
    # oracle: scan every hyperplane of PG(2, q) for the one through a and b
    field = field_of_order(q)
    space = pg_space(2, field)
    hyperplanes = [Hyperplane(p.coords) for p in space.points]
    for a, b in itertools.combinations(range(len(space.points)), 2):
        (through,) = [
            h.coeffs for h in hyperplanes
            if field.dot(h.coeffs, space.points[a].coords) == 0
            and field.dot(h.coeffs, space.points[b].coords) == 0
        ]
        assert space.join(a, b) == space.join(b, a) == through


def _anisotropic_pair_by_full_search(field):
    for b in range(field.q):
        for c in range(field.q):
            if all(field.add(field.add(field.mul(t, t), field.mul(b, t)), c) != 0
                   for t in range(field.q)):
                return b, c


@pytest.mark.parametrize("k", range(1, 10))
def test_char2_anisotropic_pair_matches_full_search(k):
    # the search starts at b = 1 in characteristic 2; the pair must be the
    # one the search over every b finds
    field = field_new(2, k)
    pair = projective._smallest_anisotropic_pair(field)
    assert pair == _anisotropic_pair_by_full_search(field)
    assert pair[0] == 1
