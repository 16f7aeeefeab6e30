import hashlib
import itertools
import re

import pytest

from conftest import (
    Residues, bfs_distances, brute_girth, conic_oval, edge_count_conserved, first_line_missing,
    lines_in, pg_space, reference_affine_girth6_graph, reference_affine_slab_graph,
    reference_mixed_keep, walked_slab_geometry,
)

from bbcage import graphs, prune
from bbcage.gf import Field, FieldError, field_new, field_of_order
from bbcage.graphs import (
    BipartiteGraph, diameter, expect_biregular, girth, induced_subgraph, levi, to_graph6,
)
from bbcage.incidence import IncidenceStructure
from bbcage.polygons import gq_q4, gq_q5, split_cayley_hexagon
from bbcage.projective import pg_points
from bbcage.prune import (
    affine_girth6_graph,
    affine_girth6_order,
    affine_slab_graph,
    affine_slab_order,
    find_free_edge,
    induced_branch_graph,
    mixed_degree_prune,
)

F2 = field_new(2, 1)
F3 = field_new(3, 1)
F4 = field_new(2, 2)
F5 = field_new(5, 1)


def test_branch_prune_q43():
    g = induced_branch_graph(levi(gq_q4(F3)), 3, 3)
    assert g.n_vertices == 54
    assert expect_biregular(g, 3, 3, 8, g.n_vertices, "branch prune") is g
    assert edge_count_conserved(g)


def test_branch_prune_q42_with_partner_slot():
    g = induced_branch_graph(levi(gq_q4(F2)), 2, 3)
    assert g.n_vertices == 20
    assert expect_biregular(g, 2, 3, 8, g.n_vertices, "branch prune") is g


def test_branch_prune_q43_partner_slot():
    g = induced_branch_graph(levi(gq_q4(F3)), 3, 4)
    assert g.n_vertices == 63
    assert expect_biregular(g, 3, 4, 8, g.n_vertices, "branch prune") is g


def test_branch_prune_rejections():
    host = levi(gq_q4(F3))
    with pytest.raises(ValueError):
        induced_branch_graph(host, 1, 3)  # degenerate degree
    with pytest.raises(ValueError):
        induced_branch_graph(host, 2, 3)  # order 45 over the girth-10 bound 25
    with pytest.raises(ValueError):
        induced_branch_graph(host, 4, 4)  # no slot for both sides extended
    with pytest.raises(ValueError):
        induced_branch_graph(host, 3, 5)


def test_branch_prune_needs_certified_host():
    irregular = BipartiteGraph(2, 2, [[0, 1], [0]])
    with pytest.raises(ValueError):
        induced_branch_graph(irregular, 2, 2)
    tree = BipartiteGraph(2, 1, [[0], [0]])
    with pytest.raises(ValueError):
        induced_branch_graph(tree, 2, 2)


def test_mixed_prune_orders_and_parameters():
    cases = [
        (levi(gq_q4(F2)), 20, (2, 3, 8)),
        (levi(gq_q4(F3)), 63, (3, 4, 8)),
        (levi(gq_q5(F2)), 56, (2, 5, 8)),
        (levi(split_cayley_hexagon(F2)), 80, (2, 3, 12)),
    ]
    for host, order, (m, n, g) in cases:
        out = mixed_degree_prune(host)
        assert out.n_vertices == order
        assert expect_biregular(out, m, n, g, out.n_vertices, "mixed prune") is out
        assert edge_count_conserved(out)


@pytest.fixture
def bfs_sources(monkeypatch):
    """The source of every bfs_order call, in call order, whether from prune
    or through graphs."""
    sources = []
    bfs = graphs.bfs_order

    def counting(adj, dist, src):
        sources.append(src)
        return bfs(adj, dist, src)

    monkeypatch.setattr(graphs, "bfs_order", counting)
    monkeypatch.setattr(prune, "bfs_order", counting)
    return sources


@pytest.fixture
def adjacency_builds(monkeypatch):
    """The graph of every BipartiteGraph.adjacency call, in call order."""
    built = []
    adjacency = BipartiteGraph.adjacency

    def counting(g):
        built.append(g)
        return adjacency(g)

    monkeypatch.setattr(BipartiteGraph, "adjacency", counting)
    return built


def test_each_prune_builds_one_adjacency(adjacency_builds):
    # girth, diameter and degree_sets build no global adjacency; a prune
    # builds the host's just once
    host = levi(gq_q4(F4))
    assert (girth(host), diameter(host), host.degrees()) == (8, 4, (5, 5))
    assert adjacency_builds == []

    def host_builds():
        return sum(g is host for g in adjacency_builds)

    point, block = find_free_edge(host)
    assert host_builds() == 1
    induced_branch_graph(host, 4, 4, edge=(point, host.n_a + block))
    assert host_builds() == 2
    mixed_degree_prune(host)
    assert host_builds() == 3


def test_prunes_search_each_anchor_once(bfs_sources):
    # Every branch shell is read off one anchor's BFS tree: the mixed prune
    # searches from v alone, the branch prune from each end of the anchor
    # edge.  The digests pin the graph6 bytes the prunes wrote when every
    # shell ran its own BFS.
    g = mixed_degree_prune(levi(gq_q5(F4)))
    assert len(bfs_sources) == 1
    digest = hashlib.sha256(to_graph6(g)).hexdigest()
    assert digest == "fb3ae77aff5e56c37cfaeb71d890def2a87e3e2db4d1cf48975d26aa28f9da9d"
    bfs_sources.clear()
    g = induced_branch_graph(levi(gq_q4(F3)), 3, 4)
    assert len(bfs_sources) == len(set(bfs_sources)) == 2
    digest = hashlib.sha256(to_graph6(g)).hexdigest()
    assert digest == "da510f3f3319d34884adb7c0017518d3005048029815a3e121d8f5d7068cea45"


@pytest.mark.parametrize(
    "host,q",
    [(gq_q4, q) for q in (2, 3, 4, 5)]
    + [(gq_q5, q) for q in (2, 3, 4, 5)]
    + [(split_cayley_hexagon, 2), (split_cayley_hexagon, 3)],
)
def test_mixed_prune_matches_the_two_search_rule(host, q):
    # The mixed prune reads its keep rule off v's branch labels alone; the
    # reference searches from u too and keeps d(v, w) = d(u, w) + 1.  At the
    # default anchor and at four incident pairs spread over the points, in
    # both orientations, the two give the same graph.
    g = levi(host(field_of_order(q)))
    r = diameter(g)
    adj = g.adjacency()
    points = range(0, g.n_a, max(1, g.n_a // 4))
    pairs = [(p, g.n_a + g.adj_a[p][-(k % 2)]) for k, p in enumerate(points)]
    edges = [None, *pairs, *((b, a) for a, b in pairs)]
    for edge in edges:
        _, u, v, _ = prune._anchor(g, edge)
        want = induced_subgraph(g, reference_mixed_keep(adj, r, u, v))
        assert mixed_degree_prune(g, edge).adj_a == want.adj_a, (edge, u, v)


def test_mixed_prune_of_a_complete_bipartite_host():
    # K(s+1, t+1) is the incidence graph of a generalized 2-gon: girth 4 and
    # diameter 2.  The prune keeps v's whole class and all but one of u's,
    # so K(t+1, s), an (s, t+1; 4) graph on s + t + 1 vertices.  The
    # two-search rule left v itself out (it has no branch), one vertex short.
    for n_a, n_b in ((3, 3), (3, 4), (4, 3), (5, 6)):
        host = BipartiteGraph(n_a, n_b, [range(n_b)] * n_a)
        _, u, v, adj = prune._anchor(host, None)
        s, t = len(adj[v]) - 1, len(adj[u]) - 1
        g = mixed_degree_prune(host)
        assert g.n_vertices == s + t + 1 and g.num_edges == s * (t + 1)
        assert len(reference_mixed_keep(adj, 2, u, v)) == s + t


@pytest.mark.parametrize("q", [2, 3, 4])
def test_mixed_prune_of_a_projective_plane(q):
    # the incidence graph of PG(2, q) is a generalized 3-gon of order (q, q):
    # the prune gives a (q, q+1; 6) graph on q(2q + 1) vertices, where the
    # order (st)^(r/2 - 1)(s + t + 1) has the half-integer exponent 1/2 (it
    # was rounded down to 0, and the contract failed on a correct graph)
    field = field_of_order(q)
    points = pg_points(2, field)
    blocks = [tuple(x.id for x in points if field.dot(h.coords, x.coords) == 0) for h in points]
    host = levi(IncidenceStructure(points, blocks))
    for edge in ((0, host.n_a + host.adj_a[0][0]), (host.n_a + host.adj_a[0][0], 0)):
        g = mixed_degree_prune(host, edge=edge)
        assert g.n_vertices == q * (2 * q + 1)
        assert sorted(g.degrees()) == [q, q + 1] and brute_girth(g, 6) == 6


@pytest.mark.parametrize(
    "host,q,accepted",
    [
        (gq_q4, 2, 2), (gq_q4, 3, 4), (gq_q4, 4, 6), (gq_q4, 5, 10),
        (gq_q5, 2, 3), (gq_q5, 3, 9), (gq_q5, 4, 27), (gq_q5, 5, 65),
        (split_cayley_hexagon, 2, 0), (split_cayley_hexagon, 3, 2),
    ],
)
def test_prunes_keep_the_per_root_shells(monkeypatch, host, q, accepted):
    # Oracle: the vertex sets the prunes keep off one BFS tree per anchor are
    # the shells found from each branch root on its own, a shell being the
    # vertices at distance i from a and j from b by one BFS from each,
    # for both orientations of the anchor edge and every (m1, n1) the branch
    # prune accepts (`accepted` of them over both orientations; the order
    # bound refuses all at H(2)).  The contract check is skipped: only the
    # sets are compared.
    kept = []
    monkeypatch.setattr(prune, "induced_subgraph", lambda g, keep: kept.append(set(keep)) or g)
    monkeypatch.setattr(prune, "expect_biregular", lambda g, *args: g)
    g = levi(host(field_of_order(q)))
    r = diameter(g)
    adj = g.adjacency()
    dist, shells = {}, {}

    def shell(a, b, i, j):
        if (a, b, i, j) not in shells:
            for x in (a, b):
                if x not in dist:
                    dist[x] = bfs_distances(adj, x)
            da, db = dist[a], dist[b]
            shells[a, b, i, j] = {w for w in range(len(adj)) if da[w] == i and db[w] == j}
        return shells[a, b, i, j]

    _, u0, v0, _ = prune._anchor(g, None)
    count = 0
    for u, v in ((u0, v0), (v0, u0)):
        mixed_degree_prune(g, edge=(u, v))
        roots = [w for w in adj[v] if w != u][1:]
        want = set().union(
            *(shell(u, v, r - j, r + 1 - j) for j in (1, 2, 3)),
            *(shell(v, x, r - 1, r - 2) | shell(v, x, r - 2, r - 3) for x in roots),
        )
        assert kept.pop() == want and not kept
        # a side's roots are its branches, then the anchor partner
        roots_v = [w for w in adj[v] if w != u] + [u]
        roots_u = [w for w in adj[u] if w != v] + [v]
        for m1 in range(2, len(roots_v) + 1):
            for n1 in range(m1, len(roots_u) + 1):
                try:
                    induced_branch_graph(g, m1, n1, edge=(u, v))
                except ValueError:
                    assert not kept
                    continue
                want = set().union(
                    *(shell(v, x, r - 1, r - 2) for x in roots_v[:m1]),
                    *(shell(u, x, r - 1, r - 2) for x in roots_u[:n1]),
                )
                assert kept.pop() == want and not kept
                count += 1
    assert count == accepted


def test_mixed_prune_girth_never_decreases():
    host = levi(gq_q4(F3))
    assert girth(mixed_degree_prune(host)) >= girth(host)


def test_free_edge_q44_and_q45():
    for field in (F4, F5):
        s = gq_q4(field)
        point, block = find_free_edge(levi(s))
        assert point in s.blocks[block]
        assert find_free_edge(levi(s)) == (point, block)  # deterministic


def test_free_edge_really_free():
    s = gq_q4(F4)
    point, block = find_free_edge(levi(s))
    g = levi(s)
    # rebuild the search's quadrangle certificate: E collinear with no vertex
    # of some proper quadrangle means E sits at distance >= 4 in the Levi
    # graph from at least one quadrangle; check the returned pair is incident
    # and that the branch prune anchored there works at full width
    out = induced_branch_graph(g, 4, 4, edge=(point, g.n_a + block))
    assert expect_biregular(out, 4, 4, 8, out.n_vertices, "branch prune") is out
    assert out.n_vertices == 8 * 16


@pytest.mark.parametrize(
    "host,field,pair",
    [
        (gq_q4, F4, (16, 58)),
        (gq_q4, F5, (20, 92)),
        (gq_q5, F3, (68, 33)),
        (gq_q5, F4, (146, 36)),
    ],
)
def test_free_edge_pinned(host, field, pair):
    # pinned: the anchor that --edge auto uses on each host
    assert find_free_edge(levi(host(field))) == pair


def test_free_edge_small_order_rejected():
    with pytest.raises(ValueError):
        find_free_edge(levi(gq_q4(F2)))


def test_slab_p5():
    g = affine_slab_graph(5, 3, 4)
    assert (g.n_a, g.n_b) == (75, 100)
    assert affine_slab_order(5, 3, 4) == g.n_vertices
    assert expect_biregular(g, 3, 4, 8, g.n_vertices, "slab") is g
    assert girth(g) == 8


def test_slab_p3_girth_is_twelve():
    # Small-parameter boundary case: the guarantee is only girth >= 8, and at
    # p = 3 with two planes no configuration closes an 8-, 10- or shorter
    # cycle; measured and cycle-enumeration girth is 12 for every choice of
    # three conic directions.
    g = affine_slab_graph(3, 2, 3)
    assert (g.n_a, g.n_b) == (18, 27)
    assert girth(g) == 12
    assert brute_girth(g) == 12


@pytest.mark.parametrize("p,m1,n1", [(3, 2, 2), (5, 2, 3), (7, 3, 3)])
def test_slab_no_short_cycles(p, m1, n1):
    g = affine_slab_graph(p, m1, n1)
    assert girth(g) >= 8
    # direct cycle enumeration capped at length 6: nothing may close
    assert brute_girth(g, cap=6) is None


@pytest.mark.parametrize(
    "p,n1,girth_measured", [(5, 2, 20), (5, 3, 12), (7, 2, 28), (7, 3, 12), (7, 4, 12)]
)
def test_slab_two_planes_girth_at_least_8(p, n1, girth_measured):
    # the slab guarantee is girth >= 8, not girth 8: with m1 = 2 planes no
    # 8-cycle closes at these parameters
    g = affine_slab_graph(p, 2, n1)
    assert girth(g) == girth_measured >= 8


def test_branch_prune_excess_nonnegative():
    from bbcage.bounds import moore_even

    g = induced_branch_graph(levi(gq_q4(F3)), 3, 3)
    assert g.n_vertices >= moore_even(3, 3, 8)


# graph6 SHA-256 of slab graphs: the ideal line and the affine lines must
# keep coming out the same however the lines are enumerated
_SLAB_DIGESTS = {
    (3, 2, 3): "c6732f3f80083645fd6b4a4b6a080b1a3955068382890e3f491477754b8f8471",
    (5, 3, 4): "f50027864e4bf912a262ba5db5e348dccdf2b43a01d7e3e636a934835ea1c262",
    (7, 4, 6): "130b27480bd6888865e801e2f3c094a67985eb3b82fa86cc5365381b19572e41",
}


@pytest.mark.parametrize("p,m1,n1", sorted(_SLAB_DIGESTS))
def test_slab_bytes_pinned(p, m1, n1):
    g = affine_slab_graph(p, m1, n1)
    assert hashlib.sha256(to_graph6(g)).hexdigest() == _SLAB_DIGESTS[p, m1, n1]


# graph6 SHA-256 of AG(2, p) graphs, from the builder that called Field
# methods per incidence; at 521 and 1021, over today's Field cap, those
# methods ran without tables
_AG2_DIGESTS = {
    (7, 7, 7): "99862745ef0fd796b6439b51d1847496a1ff8a13ab994008b94e50c36000c892",
    (13, 5, 13): "747cc3fae1556fdd70ee05d0dee1ee0595a4572db48e68f7a43bd3ae08c9dbb9",
    (521, 3, 4): "f888866a7ce7e70cf3c25237f70093820f4d231c09b7c04e293d9959d56e904a",
    (1021, 2, 5): "30f2502efdcb0d7b98065f0249fcfe71b949f9feca068735d7b6efb8c3b8e951",
    (1021, 4, 3): "27f53c5115ca05c0d079ab835a5774919acaf4a13315c68ae3f6d7047fc10e69",
}


@pytest.mark.parametrize("p,m1,n1", sorted(_AG2_DIGESTS))
def test_ag2_bytes_pinned(p, m1, n1):
    g = affine_girth6_graph(p, m1, n1)
    assert hashlib.sha256(to_graph6(g)).hexdigest() == _AG2_DIGESTS[p, m1, n1]


def _ag2_references(field):
    """(m1, n1, (n_a, n_b, adj_a)) of the Field-method reference for every
    admissible pair of affine_girth6_graph."""
    p = field.p
    for m1 in range(2, p + 1):
        for n1 in range(2, p + 1):
            want = reference_affine_girth6_graph(field, m1, n1)
            yield m1, n1, (want.n_a, want.n_b, want.adj_a)


def _slab_references(field):
    """(m1, n1, (n_a, n_b, adj_a)) for every admissible pair of
    affine_slab_graph, each cut from the one Field-method reference at
    (p, p + 1).  Its slab is every affine point, in coordinate order: the
    slab of m1 planes is the points on the first m1 of its planes, in order,
    and a row lists one line per direction, in direction order, so n1
    directions are each row's first n1 entries."""
    p = field.p
    full = reference_affine_slab_graph(field, p, p + 1)
    points = list(itertools.product(range(p), repeat=3))
    assert full.n_a == len(points)
    _, planes, _ = walked_slab_geometry(field, p, p + 1)
    plane_of = [
        next(k for k, (h0, *w) in enumerate(planes) if (h0 + field.dot(w, x)) % p == 0)
        for x in points
    ]
    for m1 in range(2, p + 1):
        rows = [row for row, k in zip(full.adj_a, plane_of) if k < m1]
        for n1 in range(2, p + 2):
            yield m1, n1, (len(rows), n1 * p * p, tuple(row[:n1] for row in rows))


_AFFINE = {
    # builder, and its Field-method references for every admissible (m1, n1)
    "ag2": (affine_girth6_graph, _ag2_references),
    "slab": (affine_slab_graph, _slab_references),
}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("family", sorted(_AFFINE))
def test_affine_rows_match_the_field_reference(family, p):
    # the closed-form rows against the incidence graph of lines built one
    # Field call per incidence, for every admissible (m1, n1)
    build, references = _AFFINE[family]
    for m1, n1, want in references(field_new(p, 1)):
        g = build(p, m1, n1)
        assert (g.n_a, g.n_b, g.adj_a) == want, (m1, n1)


@pytest.mark.parametrize("p,m1,n1", [(521, 2, 2), (521, 3, 4), (1021, 4, 3), (1021, 2, 5)])
def test_affine_girth6_rows_match_the_reference_without_tables(p, m1, n1):
    # over the Field cap the reference computes on Residues, plain integers
    # mod p with a pow inverse
    with pytest.raises(FieldError):
        field_new(p, 1)
    field = Residues(p)
    g, want = affine_girth6_graph(p, m1, n1), reference_affine_girth6_graph(field, m1, n1)
    assert (g.n_a, g.n_b, g.adj_a) == (want.n_a, want.n_b, want.adj_a)


def _refuse_field(monkeypatch):
    def refuse(*args):
        raise AssertionError("Field called")

    for name in ("__init__", "add", "neg", "mul", "dot", "_mul_slow"):
        monkeypatch.setattr(Field, name, refuse)


def test_affine_girth6_makes_no_field_call(monkeypatch):
    # the rows are integer formulas mod p: no Field is made and no field
    # arithmetic runs, here or at p = 521, over the Field cap
    want = reference_affine_girth6_graph(field_new(7, 1), 5, 7)
    _refuse_field(monkeypatch)
    assert affine_girth6_graph(7, 5, 7).adj_a == want.adj_a
    key = (521, 3, 4)
    assert hashlib.sha256(to_graph6(affine_girth6_graph(*key))).hexdigest() == _AG2_DIGESTS[key]


def test_slab_field_calls_do_not_grow_with_the_slab(monkeypatch):
    # the ideal plane's geometry is closed-form too: no Field is made and
    # no field arithmetic runs at the smallest or the largest (m1, n1)
    want = [reference_affine_slab_graph(field_new(7, 1), 7, 8).adj_a]
    _refuse_field(monkeypatch)
    assert affine_slab_graph(7, 2, 2).n_vertices == 2 * 49 + 2 * 49
    assert [affine_slab_graph(7, 7, 8).adj_a] == want


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_first_line_missing_is_first_walked_line(p):
    # the pair walk's claim: the first line of PG(2, p) in sorted order, as
    # the generic walker lists all of them, that misses the conic
    field = field_new(p, 1)
    plane = pg_space(2, field)
    oval = {pt.id for pt in conic_oval(field)}
    walked = lines_in(plane, range(len(plane.points)))
    first = next(line for line in walked if oval.isdisjoint(line))
    assert first_line_missing(plane, oval) == first


def assert_slab_geometry_is_walked(p: int):
    """prune._slab_geometry's closed-form ideal line, its planes for m1 = p
    and its conic directions for n1 = p + 1 equal the pair walk's over the
    ideal plane; and no three directions are collinear: the lines joining
    two of them are all distinct."""
    field = field_new(p, 1)
    got = prune._slab_geometry(p, p, p + 1)
    assert got == walked_slab_geometry(field, p, p + 1), p
    plane = pg_space(2, field)
    ids = [plane.id_of(d) for d in got[2]]
    joins = {plane.join(a, b) for a, b in itertools.combinations(ids, 2)}
    assert len(joins) == len(ids) * (len(ids) - 1) // 2, p


# every prime to 61 here; CI's "Ideal-line cross-check" runs them to 251
@pytest.mark.parametrize("p", [p for p in range(2, 62) if all(p % d for d in range(2, p))])
def test_slab_geometry_is_the_walked_geometry(p):
    assert_slab_geometry_is_walked(p)


def test_slab_rejections():
    with pytest.raises(ValueError):
        affine_slab_graph(3, 2, 5)  # only p + 1 conic points
    with pytest.raises(ValueError):
        affine_slab_graph(3, 4, 3)  # only p planes
    with pytest.raises(ValueError):
        affine_slab_graph(4, 2, 3)  # prime fields only


def test_affine_girth6_p5():
    g = affine_girth6_graph(5, 3, 4)
    assert (g.n_a, g.n_b) == (15, 20)
    assert affine_girth6_order(5, 3, 4) == g.n_vertices
    assert expect_biregular(g, 3, 4, 6, g.n_vertices, "affine girth-6 graph") is g
    assert brute_girth(g, 6) == 6


def test_affine_girth6_degenerate_parameters():
    # with only two directions and two horizontals no 6-cycle can close;
    # the 12-vertex graph is a single 12-cycle
    g = affine_girth6_graph(3, 2, 2)
    assert g.n_vertices == 12
    assert girth(g) == 12
    assert brute_girth(g) == 12


def test_affine_girth6_rejections():
    with pytest.raises(ValueError):
        affine_girth6_graph(5, 6, 3)
    with pytest.raises(ValueError):
        affine_girth6_graph(5, 3, 6)
    with pytest.raises(ValueError):
        affine_girth6_graph(4, 2, 2)


def test_branch_prune_asymmetric_host():
    host = levi(gq_q5(F2))  # order (2, 4)
    out = induced_branch_graph(host, 2, 4)
    assert out.n_vertices == 6 * 8
    assert expect_biregular(out, 2, 4, 8, out.n_vertices, "branch prune") is out
    with pytest.raises(ValueError):
        induced_branch_graph(host, 2, 3)  # order 40 over the girth-10 bound 25


@pytest.mark.parametrize("prune", [mixed_degree_prune, induced_branch_graph])
def test_prune_rejects_disconnected_host(prune):
    # two disjoint edges: biregular, and girth and 2 * diameter are both
    # infinite, so only the connectivity check stops this host
    from bbcage.graphs import GraphError

    host = BipartiteGraph(2, 2, [[0], [1]])
    args = (host,) if prune is mixed_degree_prune else (host, 2, 2)
    with pytest.raises(GraphError, match="disconnected"):
        prune(*args)


@pytest.mark.parametrize("prune", [mixed_degree_prune, induced_branch_graph])
def test_prune_rejects_a_host_that_is_not_biregular(prune):
    # a path of three edges: degrees {1, 2} on both sides; the refusal is
    # graphs.biregular_pair's, a GraphError and so a ValueError (exit 2)
    from bbcage.graphs import GraphError

    host = BipartiteGraph(2, 2, [[0, 1], [1]])
    args = (host,) if prune is mixed_degree_prune else (host, 2, 2)
    with pytest.raises(GraphError, match=r"^not biregular: degree sets \[1, 2\]/\[1, 2\]$"):
        prune(*args)


def test_prune_anchor_must_be_an_edge():
    host = levi(gq_q4(F2))
    adj = host.adjacency()
    non_edge = next(w for w in range(host.n_a, host.n_vertices) if w not in adj[0])
    with pytest.raises(ValueError, match="is not an edge"):
        mixed_degree_prune(host, edge=(0, non_edge))
    with pytest.raises(ValueError, match="is not an edge"):
        induced_branch_graph(host, 2, 3, edge=(0, non_edge))


@pytest.mark.parametrize("edge", [(-1, 15), (85, 0)])
def test_prune_anchor_endpoints_must_be_vertices(edge):
    # Q(4,3)'s incidence graph has 80 vertices: -1 would wrap round to 79,
    # and (79, 15) is an edge; 85 is past the end
    host = levi(gq_q4(F3))
    assert host.n_vertices == 80 and 15 in host.adjacency()[79]
    error = f"^{re.escape(f'anchor {edge} is not an edge')}$"
    with pytest.raises(ValueError, match=error):
        mixed_degree_prune(host, edge=edge)
    with pytest.raises(ValueError, match=error):
        induced_branch_graph(host, 3, 3, edge=edge)


def test_default_anchor_puts_the_smaller_degree_at_v():
    # the dual of Q(5,2): vertex 0 is a line (degree 3), its first neighbour
    # a point (degree 5), so the default anchor is (that point, vertex 0)
    s = gq_q5(F2)
    dual = BipartiteGraph(s.num_blocks, s.num_points, s.blocks)
    g = mixed_degree_prune(dual)
    assert (g.n_vertices, g.degree_sets()) == (56, ({2}, {5}))
    partner = dual.adjacency()[0][0]
    assert mixed_degree_prune(dual, edge=(partner, 0)).adj_a == g.adj_a
    assert mixed_degree_prune(dual, edge=(0, partner)).degree_sets() == ({3}, {4})


def _complete(n_a, n_b):
    return BipartiteGraph(n_a, n_b, [range(n_b)] * n_a)


def _cycle(n):
    k = n // 2  # A-vertex i meets B-vertices i and i + 1 (mod k)
    return BipartiteGraph(k, k, [sorted({i, (i + 1) % k}) for i in range(k)])


@pytest.mark.parametrize(
    "host",
    [_complete(2, 2), _complete(2, 3), _complete(3, 2), _cycle(6), _cycle(8), _cycle(12), _cycle(16)],
    ids=["K22", "K23", "K32", "C6", "C8", "C12", "C16"],
)
def test_mixed_prune_refuses_a_thin_host(monkeypatch, host):
    # the default anchor puts a degree-2 vertex at v, so s = 1: the thin
    # generalized 2-, 3-, 4-, 6- and 8-gons are refused before any branch
    # search, where they used to fail their own contract (ConstructionError)
    monkeypatch.setattr(prune, "_branches", lambda *args: pytest.fail("searched"))
    with pytest.raises(ValueError, match=r"^thin host: anchor vertex \d+ has degree 2") as err:
        mixed_degree_prune(host)
    assert not isinstance(err.value, graphs.ConstructionError)


@pytest.mark.parametrize("host,edge", [(_complete(3, 2), (0, 3)), (_complete(2, 3), (2, 0))])
def test_mixed_prune_keeps_an_anchor_with_t_1(host, edge):
    # the refusal is exactly s = 1: the same thin hosts anchored with their
    # degree-3 end at v (s = 2, t = 1) give the (2, 2; 4) graph, the 4-cycle
    g = mixed_degree_prune(host, edge=edge)
    assert (g.n_vertices, g.degrees(), girth(g)) == (4, (2, 2), 4)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: affine_girth6_graph(3.0, 2, 2), "q 3.0 is not an int"),
        (lambda: affine_slab_graph(3, 2, "2"), "n1 '2' is not an int"),
        (lambda: mixed_degree_prune(levi(gq_q4(F2)), edge=(0.5, 3)),
         "anchor u 0.5 is not an int"),
    ],
    ids=["affine_girth6_graph", "affine_slab_graph", "mixed_degree_prune"],
)
def test_a_non_int_argument_is_refused_by_name(build, message):
    with pytest.raises(ValueError) as err:  # it used to end in TypeError
        build()
    assert str(err.value) == message
