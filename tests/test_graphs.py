import math
import random
import tracemalloc

import pytest

from conftest import (
    bfs_diameter, bfs_girth, bipartite_from_edges, brute_girth, holds_only_adj_a_and_invariants,
)

from bbcage import graphs
from bbcage.bounds import excess_of
from bbcage.deletions import NAMED_FAMILIES, construct_named
from bbcage.designs import sts_generate
from bbcage.gf import field_new
from bbcage.graphs import (
    BipartiteGraph,
    ConstructionError,
    GraphError,
    diameter,
    expect_biregular,
    from_dimacs,
    from_graph6,
    girth,
    graph_from_edges,
    induced_subgraph,
    levi,
    to_dimacs,
    to_graph6,
)
from bbcage.incidence import IncidenceStructure
from bbcage.polygons import gq_q4, gq_q5, split_cayley_hexagon
from bbcage.prune import affine_girth6_graph

F2 = field_new(2, 1)
F3 = field_new(3, 1)


def cycle_graph(k):
    """2k-cycle as a bipartite graph: A vertices alternate with B vertices."""
    return bipartite_from_edges(
        k, k, [(i, i) for i in range(k)] + [(i, (i + 1) % k) for i in range(k)]
    )


def test_levi_fano_is_heawood():
    g = levi(IncidenceStructure(range(7), sts_generate(7).blocks))
    assert g.n_vertices == 14
    assert g.num_edges == 21
    assert girth(g) == 6
    assert diameter(g) == 3
    assert g.degree_sets() == ({3}, {3})


def test_levi_empty_rejected():
    with pytest.raises(GraphError):
        levi(IncidenceStructure([], []))
    with pytest.raises(GraphError):
        levi(IncidenceStructure([None, None], []))


def test_levi_q42():
    g = levi(gq_q4(F2))
    assert g.n_vertices == 30
    assert g.num_edges == 45
    assert diameter(g) == 4
    assert g.degree_sets() == ({3}, {3})


def test_girth_cycles_and_forest():
    assert girth(cycle_graph(4)) == 8
    assert girth(cycle_graph(3)) == 6
    path = BipartiteGraph(2, 1, [[0], [0]])
    assert girth(path) == math.inf
    assert diameter(path) == 2


def test_girth_and_diameter_measured_once(monkeypatch):
    g = levi(gq_q4(F2))
    assert (girth(g), diameter(g)) == (8, 4)
    with pytest.raises(AttributeError):
        g.adj_a.append((0,))

    def no_adjacency(self):
        raise AssertionError("adjacency read again")

    monkeypatch.setattr(BipartiteGraph, "adjacency", no_adjacency)
    assert (girth(g), diameter(g)) == (8, 4)


def _dual(g):
    """The same graph with its classes swapped, so class B is the smaller."""
    return bipartite_from_edges(g.n_b, g.n_a, [(b - g.n_a, a) for a, b in g.edges()])


@pytest.mark.parametrize("per_chunk", [1, 3, None])  # None: all roots in one chunk
@pytest.mark.parametrize(
    "make",
    [
        # an 8-cycle beside a 12-cycle: disconnected, girth 8
        lambda: bipartite_from_edges(
            10, 10,
            [(i, i) for i in range(10)]
            + [(i, (i + 1) % 4) for i in range(4)]
            + [(i, 4 + (i - 3) % 6) for i in range(4, 10)],
        ),
        # Q(5,2) with its lines as class A: 45 lines, 27 points
        lambda: _dual(levi(gq_q5(F2))),
        # the path a0 b0 a1 b1 a2: class B is smaller and its eccentricity 3
        # is odd, so class A is searched too
        lambda: BipartiteGraph(3, 2, [[0], [0, 1], [1]]),
    ],
)
def test_searches_read_class_local_rows(monkeypatch, make, per_chunk):
    # girth and diameter read adj_a and its transpose: no search builds the
    # global adjacency, whatever the chunk size
    g = make()
    want = bfs_girth(g), bfs_diameter(g)
    fresh = [induced_subgraph(g, range(g.n_vertices)) for _ in range(2)]

    def no_adjacency(self):
        raise AssertionError("global adjacency built by a search")

    monkeypatch.setattr(BipartiteGraph, "adjacency", no_adjacency)
    monkeypatch.setattr(graphs, "ROOT_BITS", (per_chunk or g.n_vertices) * g.n_vertices)
    a, b = fresh
    assert (girth(a), diameter(a)) == (want[0], math.inf if want[1] is None else want[1])
    assert (diameter(b), girth(b)) == (math.inf if want[1] is None else want[1], want[0])


def test_diameter_peak_stays_small():
    # class-local rows and lists: diameter of a 1,922-vertex affine graph
    # holds under 1.5 MiB (2.2 MiB when it built the global adjacency)
    g = affine_girth6_graph(31, 31, 31)
    tracemalloc.start()
    try:
        assert diameter(g) == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert girth(g) == 6
    assert peak < 1.5 * 2**20, peak


@pytest.mark.parametrize(
    "make,diam,roots",
    [
        # a projective plane has diameter 3: odd, so both classes are roots
        (lambda: levi(IncidenceStructure(range(7), sts_generate(7).blocks)), 3, [0, 7]),
        # a quadrangle has diameter 4: the smaller class alone decides
        (lambda: levi(gq_q5(F2)), 4, [0]),
        # the star b0 a0 b1: the class of a0 has eccentricity 1, odd
        (lambda: BipartiteGraph(1, 2, [[0, 1]]), 2, [0, 1]),
        # class A is empty, so the roots are class B's one vertex
        (lambda: BipartiteGraph(0, 1, []), 0, [0]),
    ],
)
def test_diameter_searches_the_other_class_only_when_odd(monkeypatch, make, diam, roots):
    from bbcage import graphs

    firsts = []
    levels = graphs._levels

    def recording(g, class_roots, full):
        assert full
        firsts.append(class_roots[0])
        return levels(g, class_roots, full)

    monkeypatch.setattr(graphs, "_levels", recording)
    g = make()
    g = induced_subgraph(g, range(g.n_vertices))  # unmeasured, if make's is stored
    assert diameter(g) == diam
    assert firsts == roots
    girth(g)  # stored by the diameter search
    assert len(firsts) == len(roots)


def test_measured_graph_holds_no_adjacency():
    g = levi(gq_q5(F3))
    assert excess_of(g).excess == 0  # reads girth and degree sets
    assert (girth(g), diameter(g), g.degrees()) == (8, 4, (10, 4))
    assert holds_only_adj_a_and_invariants(g)
    assert g.adjacency() is not g.adjacency()  # built fresh, never kept
    assert holds_only_adj_a_and_invariants(g)


def test_girth_q43():
    assert girth(levi(gq_q4(F3))) == 8


def test_girth_matches_brute_oracle_random():
    rng = random.Random(7)
    for _ in range(25):
        n_a, n_b = rng.randrange(3, 9), rng.randrange(3, 9)
        edges = {
            (rng.randrange(n_a), rng.randrange(n_b))
            for _ in range(rng.randrange(4, n_a * n_b + 1))
        }
        g = bipartite_from_edges(n_a, n_b, sorted(edges))
        expect = brute_girth(g)
        got = girth(g)
        assert got == (expect if expect is not None else math.inf)


def test_diameter_disconnected_rejected():
    g = BipartiteGraph(2, 2, [[0], [1]])
    assert bfs_diameter(g) is None
    assert diameter(g) == math.inf


def test_kernels_match_networkx_on_named_families():
    nx = pytest.importorskip("networkx")
    # q = 2 is the smallest q every host and named family allows.
    hosts = [levi(build(F2)) for build in (gq_q4, gq_q5, split_cayley_hexagon)]
    for g in hosts + [construct_named(family, 2) for family in sorted(NAMED_FAMILIES)]:
        ref = nx.Graph(g.edges())
        ref.add_nodes_from(range(g.n_vertices))
        assert (girth(g), diameter(g)) == (nx.girth(ref), nx.diameter(ref))


def test_expect_biregular_on_k33():
    k33 = BipartiteGraph(3, 3, [range(3)] * 3)
    assert expect_biregular(k33, 3, 3, 4, k33.n_vertices, "K33") is k33
    with pytest.raises(ConstructionError, match="^violated invariant: K33: girth 4 != expected 6$"):
        expect_biregular(k33, 3, 3, 6, k33.n_vertices, "K33")
    with pytest.raises(
        ConstructionError,
        match=r"^violated invariant: K33: degree sets \[3\]/\[3\] are not \{2\}/\{3\}$",
    ):
        expect_biregular(k33, 2, 3, 4, k33.n_vertices, "K33")


def test_induced_subgraph_keeps_what_it_is_given():
    # a0-b0-a1-b1 plus the isolated a2; without a1, a2 and b1 have no edge
    g = BipartiteGraph(3, 2, [[0], [0, 1], []])
    g.meta["girth"] = 4
    sub = induced_subgraph(g, [4, 0, 2, 3])
    assert (sub.n_a, sub.n_b) == (2, 2)
    assert sub.adj_a == ((0,), ())
    assert sub.meta == {}  # a new graph records nothing of its host


@pytest.mark.parametrize("keep", [[-1, 0, 15, 16], [0, 30, 99]])
def test_induced_subgraph_refuses_ids_outside_the_graph(keep):
    # a negative id would wrap to the last row, and an id >= n would be a
    # phantom class-B vertex
    g = levi(gq_q4(F2))
    assert g.n_vertices == 30
    with pytest.raises(GraphError, match="^vertex out of range$"):
        induced_subgraph(g, keep)
    assert induced_subgraph(g, [0, 15, 29]).n_vertices == 3


def test_graph6_roundtrip_cycle():
    g = cycle_graph(4)
    n, edges = from_graph6(to_graph6(g))
    assert n == 8
    assert sorted(edges) == sorted(tuple(sorted(e)) for e in g.edges())


def test_graph6_roundtrip_random_and_header():
    rng = random.Random(11)
    for _ in range(20):
        n_a, n_b = rng.randrange(1, 8), rng.randrange(1, 8)
        edges = sorted(
            {(rng.randrange(n_a), rng.randrange(n_b)) for _ in range(rng.randrange(1, 12))}
        )
        g = bipartite_from_edges(n_a, n_b, edges)
        data = to_graph6(g)
        n, back = from_graph6(b">>graph6<<" + data)
        assert n == g.n_vertices
        assert sorted(back) == sorted(tuple(sorted(e)) for e in g.edges())


def test_graph6_large_n_prefix():
    # n = 70 exercises the multi-byte size encoding
    g = BipartiteGraph(35, 35, [[i] for i in range(35)])
    n, edges = from_graph6(to_graph6(g))
    assert n == 70
    assert len(edges) == 35


@pytest.mark.parametrize(
    "n,prefix",
    [
        # N(n) of McKay's formats.txt: n + 63 for n <= 62, else 126 and n in
        # 18 bits, or 126 126 and n in 36 bits, six bits per byte plus 63;
        # 30, 12345 and 460175067 are its own examples
        (1, b"@"),
        (30, b"]"),
        (62, b"}"),
        (63, b"~??~"),
        (64, b"~?@?"),
        (1000, b"~?Ng"),
        (12345, b"~B?x"),
        (258047, b"~}~~"),
        (258048, b"~~???~??"),
        (460175067, b"~~?ZZZZZ"),
        (10**9, b"~~?zekg?"),
        (graphs._G6_MAX, b"~~~~~~~~"),
    ],
)
def test_graph6_size_prefix_bytes(n, prefix):
    assert graphs._g6_size_bytes(n) == prefix


def test_graph6_size_prefix_refused_above_max():
    with pytest.raises(GraphError, match="cannot encode 68719476736 vertices"):
        graphs._g6_size_bytes(graphs._G6_MAX + 1)


def test_graph6_empty_rejected():
    with pytest.raises(GraphError):
        to_graph6(BipartiteGraph(0, 0, []))
    with pytest.raises(GraphError):
        from_graph6("")


def test_graph6_truncated_size_prefix_rejected():
    # "~" must be followed by 3 size bytes and "~~" by 6
    for data in ("~A", "~", "~AB", "~~AAAAA"):
        with pytest.raises(GraphError, match="size prefix truncated"):
            from_graph6(data)


@pytest.mark.parametrize(
    "decode,data",
    [
        (from_graph6, b"\xff"),
        (from_graph6, b"Bw\xc3\xa9\n"),
        (from_dimacs, b"p edge 2 1\ne 1 \xb2\n"),
        (from_dimacs, "p edge \u0663 0\n"),  # an Arabic-Indic digit three
    ],
)
def test_non_ascii_rejected(decode, data):
    with pytest.raises(GraphError, match="non-ASCII"):
        decode(data)


def test_dimacs_roundtrip():
    g = levi(IncidenceStructure(range(7), sts_generate(7).blocks))
    n, edges = from_dimacs(to_dimacs(g))
    assert n == 14
    assert sorted(edges) == sorted(tuple(sorted(e)) for e in g.edges())
    with pytest.raises(GraphError):
        from_dimacs("e 1 2\n")
    comments = "c\nc a comment\n\tc\tindented\n"
    assert from_dimacs(comments + "p edge 2 1\ne 1 2\n") == (2, [(0, 1)])


@pytest.mark.parametrize(
    "text,offending",
    [
        ("p edge -2 0\n", "p edge -2 0"),
        ("p edge 3 x\n", "p edge 3 x"),
        ("p edge 4 9\ne 1 2\n", "p edge 4 9"),
        ("p edge 2 1\ne 1\n", "e 1"),
        ("p edge 2 1\ne 1 y\n", "e 1 y"),
        ("p edge 3 1\ne 1 2 3\n", "e 1 2 3"),
        ("p edge 2 1\ne 1 2\np edge 1 1\n", "p edge 1 1"),
        ("pe edge 2 1\n", "pe edge 2 1"),
        ("p edge 2 1\nedge 1 2\n", "edge 1 2"),
        ("cfoo\np edge 2 1\ne 1 2\n", "cfoo"),  # a comment is the token c
        ("p edge " + "9" * 5000 + " 0\n", "p edge " + "9" * 33),  # past int()'s limit
    ],
)
def test_dimacs_malformed_rejected(text, offending):
    with pytest.raises(GraphError, match=repr(offending)):
        from_dimacs(text)


def test_bipartition_and_wrapping():
    g = levi(gq_q4(F2))
    n, edges = from_graph6(to_graph6(g))
    wrapped = graph_from_edges(n, edges)
    assert wrapped.n_vertices == 30
    assert girth(wrapped) == 8
    odd = [(0, 1), (1, 2), (0, 2)]
    with pytest.raises(GraphError):
        graph_from_edges(3, odd)


def test_girth_of_bipartite_is_even():
    rng = random.Random(3)
    for _ in range(10):
        n_a, n_b = rng.randrange(2, 7), rng.randrange(2, 7)
        edges = sorted(
            {(rng.randrange(n_a), rng.randrange(n_b)) for _ in range(rng.randrange(3, 12))}
        )
        gi = girth(bipartite_from_edges(n_a, n_b, edges))
        assert gi == math.inf or gi % 2 == 0
