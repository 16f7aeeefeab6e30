import pytest

from conftest import brute_girth, edge_count_conserved, structure_delete

from bbcage.bounds import excess_of, moore_even
from bbcage.deletions import construct_named, hyperplane_delete
from bbcage.gf import field_new, field_of_order
from bbcage.graphs import (
    ConstructionError,
    GraphError,
    expect_biregular,
    girth,
    induced_subgraph,
    levi,
)
from bbcage.incidence import IncidenceStructure
from bbcage.polygons import gq_q4, gq_q5, ovoid_hyperplane, split_cayley_hexagon
from bbcage.projective import Hyperplane, hyperplane_section, pg_points

F2 = field_new(2, 1)
F3 = field_new(3, 1)


def _without(g, doomed):
    """The vertex ids of g outside doomed, ascending."""
    doomed = set(doomed)
    return [v for v in range(g.n_vertices) if v not in doomed]


def test_delete_ovoid_q43():
    s = gq_q4(F3)
    ovoid, _, _ = hyperplane_section(s.points, s.blocks, Hyperplane(ovoid_hyperplane(F3)), F3)
    host = levi(s)
    g = induced_subgraph(host, _without(host, ovoid))
    assert g.n_a == 30
    assert g.n_b == 40
    assert g.degree_sets()[1] == {3}
    assert g.n_vertices == 70
    assert expect_biregular(g, 3, 4, 8, g.n_vertices, "ovoid deletion") is g


def test_delete_nothing_is_identity():
    host = levi(gq_q4(F2))
    g = induced_subgraph(host, _without(host, []))
    assert (g.n_a, g.n_b) == (host.n_a, host.n_b)
    assert g.adj_a == host.adj_a


def test_delete_everything_then_levi_errors():
    # deleting every vertex leaves the empty graph, which no contract
    # accepts, and an emptied structure has no incidence graph
    host = levi(gq_q4(F2))
    g = induced_subgraph(host, _without(host, range(host.n_vertices)))
    assert g.n_a == g.n_b == 0
    with pytest.raises(ConstructionError, match="order 0 != 15"):
        expect_biregular(g, 2, 3, 8, 15, "empty")
    with pytest.raises(Exception):
        levi(IncidenceStructure([], []))


def test_emptied_block_fails_the_degree_clause():
    # a block stripped of all its points is an isolated class-B vertex, so
    # the {m} degree clause of the contract refuses the graph
    host = levi(IncidenceStructure([None] * 3, [(0, 1), (1, 2)]))
    g = induced_subgraph(host, _without(host, [0, 1]))
    assert g.adj_a == ((1,),)
    with pytest.raises(ConstructionError, match=r"degree sets \[1\]/\[0, 1\]"):
        expect_biregular(g, 1, 1, 0, g.n_vertices, "emptied block")
    host = levi(gq_q4(F2))
    g = induced_subgraph(host, _without(host, range(15)))
    assert g.degree_sets() == (frozenset(), frozenset({0}))
    with pytest.raises(ConstructionError, match="degree sets"):
        expect_biregular(g, 2, 3, 8, g.n_vertices, "emptied blocks")


def test_duplicated_block_closes_a_4_cycle():
    # two blocks that agree off the deleted points close a 4-cycle, below
    # the girth floor 2r of every polygon deletion
    host = levi(IncidenceStructure([None] * 4, [(0, 1, 2), (0, 1, 3)]))
    g = induced_subgraph(host, _without(host, [2, 3]))
    assert g.adj_a == ((0, 1), (0, 1))
    assert girth(g) == 4
    with pytest.raises(ConstructionError, match="girth 4 != expected 6"):
        expect_biregular(g, 2, 2, 6, g.n_vertices, "duplicated block")


def test_delete_one_line_drops_degrees():
    host = levi(gq_q4(F2))
    g = induced_subgraph(host, _without(host, [host.n_a]))
    degs = [len(bs) for bs in g.adj_a]
    assert degs.count(2) == 3  # the deleted line's three points
    assert degs.count(3) == 12


def _find_spread(structure):
    """Backtracking search for a partition of the points into disjoint lines."""
    blocks = structure.blocks
    want = structure.num_points

    def extend(chosen, covered, start):
        if len(covered) == want:
            return chosen
        for bi in range(start, len(blocks)):
            blk = blocks[bi]
            if covered.isdisjoint(blk):
                got = extend(chosen + [bi], covered | set(blk), bi + 1)
                if got:
                    return got
        return None

    return extend([], set(), 0)


def test_spread_deletion():
    s = gq_q4(F2)
    spread = _find_spread(s)
    # a spread: st + 1 = 5 pairwise disjoint lines
    assert spread is not None and len(spread) == 5
    lines = [set(s.blocks[bi]) for bi in spread]
    assert all(a.isdisjoint(b) for i, a in enumerate(lines) for b in lines[i + 1 :])
    host = levi(s)
    g = induced_subgraph(host, _without(host, (host.n_a + bi for bi in spread)))
    assert g.n_vertices == 25  # (st+1)(s+t+1)
    # the q = 2 quadrangle is self-dual, so spread deletion mirrors ovoid
    # deletion: what remains is the subdivided Petersen graph of girth 10
    assert expect_biregular(g, 2, 3, 10, g.n_vertices, "spread deletion") is g
    assert girth(g) >= 8
    assert brute_girth(g) == 10


# A subquadrangle of order (m, n/m) in a quadrangle of order (m, n), as a
# hyperplane section: Q(4,q) in Q(5,q) (parabolic), and the (q, 1) grid in
# Q(4,q) (hyperbolic).  name -> (host, coefficients, q -> (points, lines) of
# the section)
_SUBQUADRANGLES = {
    "q5-parabolic": (gq_q5, (0, 0, 0, 0, 1, 0), lambda q: ((q + 1) * (q * q + 1),) * 2),
    "q4-grid": (gq_q4, (1, 0, 0, 0, 0), lambda q: ((q + 1) ** 2, 2 * (q + 1))),
}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("section", sorted(_SUBQUADRANGLES))
def test_hyperplane_delete_subquadrangle(section, q):
    host, coeffs, sizes = _SUBQUADRANGLES[section]
    field = field_of_order(q)
    s = host(field)
    m, n = s.tag["order"]
    assert n % m == 0
    pts_in, blocks_in, _ = hyperplane_section(s.points, s.blocks, Hyperplane(coeffs), field)
    assert (len(pts_in), len(blocks_in)) == sizes(q)
    # every remaining line contains exactly one deleted point
    inside, doomed = set(blocks_in), set(pts_in)
    for bi, blk in enumerate(s.blocks):
        if bi not in inside:
            assert len(doomed.intersection(blk)) == 1
    # the subquadrangle contract: (m, n+1; 8) of order (m+n+1)(m^2-1)n/m
    g = hyperplane_delete(s, Hyperplane(coeffs))
    assert g.n_vertices == (m + n + 1) * (m * m - 1) * n // m
    assert expect_biregular(g, m, n + 1, 8, g.n_vertices, section) is g


def test_subquadrangle_rejects_ids_outside_the_structure():
    # a true subquadrangle plus one id past the end, or one below 0:
    # induced_subgraph refuses the set
    s = gq_q5(F2)
    pts_in, blocks_in, _ = hyperplane_section(
        s.points, s.blocks, Hyperplane((0, 0, 0, 0, 1, 0)), F2
    )
    host = levi(s)
    doomed = pts_in + [host.n_a + b for b in blocks_in]
    for foreign in (host.n_vertices, -1):
        with pytest.raises(GraphError, match="^vertex out of range$"):
            induced_subgraph(host, _without(host, doomed) + [foreign])


@pytest.mark.parametrize(
    "host,q", [(gq_q4, 3), (gq_q5, 2), (split_cayley_hexagon, 2)], ids=["Q(4,3)", "Q(5,2)", "H(2)"]
)
def test_every_hyperplane_deletion_matches_the_structure_oracle(host, q):
    field = field_of_order(q)
    s = host(field)
    hyperplanes = [Hyperplane(p.coords) for p in pg_points(len(s.points[0]) - 1, field)]
    assert len(hyperplanes) == (q ** len(s.points[0]) - 1) // (q - 1)
    for h in hyperplanes:
        pts_in, blocks_in, _ = hyperplane_section(s.points, s.blocks, h, field)
        g = hyperplane_delete(s, h)
        ref = structure_delete(s, pts_in, blocks_in)
        assert g.adj_a == ref.adj_a
        assert g.meta["girth"] == girth(ref)


def test_hyperplane_delete_q43_is_certified_cage():
    g = hyperplane_delete(gq_q4(F3), Hyperplane((1, 0, 0, 0, 0)))
    assert g.n_vertices == 56
    rep = excess_of(g)
    assert rep.moore_bound == 49
    assert rep.excess == 7
    assert rep.cage_certified
    assert expect_biregular(g, 3, 4, 8, g.n_vertices, "hyperplane deletion") is g
    with pytest.raises(
        ConstructionError,
        match="^violated invariant: hyperplane deletion: girth 8 != expected 10$",
    ):
        expect_biregular(g, 3, 4, 10, g.n_vertices, "hyperplane deletion")


def test_hyperplane_delete_q42_zero_excess():
    g = hyperplane_delete(gq_q4(F2), Hyperplane((1, 0, 0, 0, 0)))
    assert g.n_vertices == 15 == moore_even(2, 3, 8)
    rep = excess_of(g)
    assert rep.excess == 0
    assert rep.cage_certified


def test_hyperplane_delete_tangent_section_still_consistent():
    # a tangent hyperplane is allowed: order formula driven by the section size
    s = gq_q4(F2)
    for coeffs in [(0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (1, 1, 0, 0, 0)]:
        try:
            g = hyperplane_delete(s, Hyperplane(coeffs))
        except ValueError:
            continue
        da, db = g.degree_sets()
        assert (da, db) == ({3}, {2}) or (da, db) == ({2}, {3})
        assert girth(g) >= 8
        return
    pytest.skip("no alternative section hyperplane worked")


@pytest.mark.parametrize(
    "family,q,order,m,n,girth_expected",
    [
        ("q4-hyperbolic-prune", 2, 15, 2, 3, 8),
        ("q4-hyperbolic-prune", 3, 56, 3, 4, 8),
        ("q4-hyperbolic-prune", 4, 135, 4, 5, 8),
        ("q4-ovoid-delete", 2, 25, 2, 3, 10),
        ("q4-ovoid-delete", 3, 70, 3, 4, 8),
        ("q5-parabolic-prune", 2, 42, 2, 5, 8),
        ("q5-parabolic-prune", 3, 312, 3, 10, 8),
        ("q5-subgq-delete", 2, 42, 2, 5, 8),
        ("hexagon-hyperbolic-prune", 2, 70, 2, 3, 14),
        ("hexagon-hyperbolic-prune", 3, 546, 3, 4, 12),
    ],
)
def test_construct_named(family, q, order, m, n, girth_expected):
    g = construct_named(family, q)
    assert g.n_vertices == order
    assert expect_biregular(g, m, n, girth_expected, g.n_vertices, family) is g
    assert edge_count_conserved(g)


def test_named_q5_paths_agree():
    a = construct_named("q5-parabolic-prune", 2)
    b = construct_named("q5-subgq-delete", 2)
    assert sorted(a.edges()) == sorted(b.edges())


def test_hexagon_prune_q3_excess_arithmetic():
    q = 3
    rep = excess_of(construct_named("hexagon-hyperbolic-prune", q))
    assert rep.moore_bound == 301
    assert rep.improved_lower_bound == 308
    assert rep.excess == 546 - 301
    assert not rep.cage_certified
    # order sits exactly (2q+1)(2q^3 - 2q^2 - 2) above the improved bound
    assert rep.order == rep.improved_lower_bound + (2 * q + 1) * (
        2 * q ** 3 - 2 * q * q - 2
    )


def test_named_unknown_family():
    with pytest.raises(ValueError):
        construct_named("moebius-kantor", 2)


def test_small_named_graphs_match_brute_girth():
    for family, q, expect in [
        ("q4-hyperbolic-prune", 2, 8),
        ("q4-ovoid-delete", 2, 10),
        ("q5-subgq-delete", 2, 8),
    ]:
        g = construct_named(family, q)
        if g.n_vertices <= 64:
            assert brute_girth(g) == expect == girth(g)


def test_deletion_monotone_girth():
    host_girth = girth(levi(gq_q4(F3)))
    for family in ("q4-hyperbolic-prune", "q4-ovoid-delete"):
        assert girth(construct_named(family, 3)) >= host_girth


def test_named_construction_searches_girth_once_per_graph(girth_searches):
    g = construct_named("hexagon-hyperbolic-prune", 3)
    assert girth(g) == 12
    ids = [id(x) for x in girth_searches]
    assert len(ids) == len(set(ids))
    assert any(x is g for x in girth_searches)


def test_hyperplane_delete_records_its_girth():
    # the measured girth, here above the host's 2r = 8, is all the meta holds
    g = construct_named("q4-ovoid-delete", 2)
    assert g.meta == {"girth": 10} and girth(g) == 10


@pytest.mark.parametrize(
    "family,q",
    [
        ("q4-hyperbolic-prune", 3),
        ("q5-parabolic-prune", 2),
        ("hexagon-hyperbolic-prune", 2),
        ("q4-ovoid-delete", 3),
        ("q5-subgq-delete", 2),
    ],
)
def test_named_deletion_sections_once(monkeypatch, family, q):
    from bbcage import deletions

    calls = []

    def counted(*args):
        calls.append(args[2])
        return hyperplane_section(*args)

    monkeypatch.setattr(deletions, "hyperplane_section", counted)
    construct_named(family, q)
    assert len(calls) == 1


def test_named_deletion_wrong_section_fails_its_order(monkeypatch):
    # the tangent hyperplane X2 = 0 cuts Q(4,3) in a 13-point cone, not the
    # 16-point hyperbolic section: hyperplane_delete's own u-dependent order
    # holds, the named family's closed form does not
    from bbcage import deletions

    monkeypatch.setattr(deletions, "Hyperplane", lambda _: Hyperplane((0, 0, 1, 0, 0)))
    with pytest.raises(ConstructionError, match="q4-hyperbolic-prune order 63 != 56"):
        construct_named("q4-hyperbolic-prune", 3)


def test_expect_biregular_rejects_wrong_order_and_girth():
    g = levi(gq_q4(F2))  # 30 vertices, degrees 3/3, girth 8
    assert expect_biregular(g, 3, 3, 8, 30, "Q(4,2)") is g
    with pytest.raises(ConstructionError, match="Q\\(4,2\\) order 30 != 31"):
        expect_biregular(g, 3, 3, 8, 31, "Q(4,2)")
    with pytest.raises(ConstructionError, match="girth 8 != expected 6"):
        expect_biregular(g, 3, 3, 6, 30, "Q(4,2)")
    with pytest.raises(ConstructionError, match="degree sets"):
        expect_biregular(g, 3, 4, 8, 30, "Q(4,2)")


def test_hyperplane_delete_checks_its_order_formula():
    # Q(4,2) tagged with the wrong order (3, 3): the u-formula order is not
    # even an integer, and the exact order check aborts on it
    s = gq_q4(F2)
    wrong = IncidenceStructure(s.points, s.blocks, tag={**s.tag, "order": (3, 3)})
    with pytest.raises(ConstructionError, match="hyperplane deletion order 15 != 217/3"):
        hyperplane_delete(wrong, Hyperplane((1, 0, 0, 0, 0)))


def test_hyperplane_delete_contract_is_expect_biregular(monkeypatch):
    # order from the section size u, degrees (m, n+1), the measured girth
    from bbcage import deletions

    calls = []
    real = deletions.expect_biregular
    monkeypatch.setattr(
        deletions, "expect_biregular", lambda *a: calls.append(a[1:]) or real(*a)
    )
    hyperplane_delete(gq_q4(F3), Hyperplane((1, 0, 0, 0, 0)))
    assert calls == [(3, 4, 8, 56, "hyperplane deletion")]
