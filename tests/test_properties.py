"""Hypothesis properties: the bit-parallel girth and diameter kernels against
the per-root BFS oracles, the stored degree sets against an edge recount and
the global adjacency, graph_from_edges against a union-find 2-colouring, the
rows every graph builder makes, the file readers against hostile input,
the generic line walker conftest.lines_in against a scan of every point
pair, and
hyperplane_section against the per-block scan."""

import math
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    bfs_diameter, bfs_girth, bipartite_from_edges, lines_in, pg_space, scan_section,
    two_colouring,
)

from bbcage import graphs
from bbcage.designs import DesignError, design_load
from bbcage.gf import field_of_order
from bbcage.graphs import (
    GraphError,
    diameter,
    from_dimacs,
    from_graph6,
    girth,
    graph_from_edges,
    induced_subgraph,
    levi,
)
from bbcage.incidence import IncidenceStructure
from bbcage.projective import GeometryError, Hyperplane, hyperplane_section, pg_points


@st.composite
def bipartite_graphs(draw):
    """Any bipartite graph with at most 10 vertices per class: forests,
    disconnected graphs, isolated vertices, an empty class, one vertex.  Half
    of them have a class A of mostly isolated or pendant vertices, with at
    most three of higher degree, so few class-A vertices can lie on a cycle."""
    n_a = draw(st.integers(0, 10))
    n_b = draw(st.integers(0, 10))
    pairs = [(a, b) for a in range(n_a) for b in range(n_b)]
    edges = set()
    if pairs and draw(st.booleans()):
        edges = draw(st.sets(st.sampled_from(pairs), max_size=3 * (n_a + n_b)))
    elif pairs:
        hubs = draw(st.sets(st.integers(0, n_a - 1), max_size=3))
        for a in range(n_a):
            cap = n_b if a in hubs else 1
            edges.update((a, b) for b in draw(st.sets(st.integers(0, n_b - 1), max_size=cap)))
    return bipartite_from_edges(n_a, n_b, sorted(edges))


# Isolated vertices, also between joined ones, and an empty class: the
# adjacency the kernels build must keep a row for each, and the degree sets
# must hold 0 for each class with an isolated vertex.
EDGE_CASES = [
    bipartite_from_edges(2, 3, [(0, 0), (1, 0)]),
    bipartite_from_edges(2, 4, [(0, 1), (0, 3), (1, 1), (1, 3)]),
    bipartite_from_edges(0, 3, []),
    bipartite_from_edges(3, 0, []),
    bipartite_from_edges(1, 0, []),
    bipartite_from_edges(0, 1, []),
    # the path b0 a0 b1 a1 b2: the smaller class's eccentricities are all 3,
    # odd, and only the search from class B finds the diameter 4
    bipartite_from_edges(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)]),
    # a 4-cycle and an isolated vertex of the larger class
    bipartite_from_edges(2, 3, [(0, 0), (0, 1), (1, 0), (1, 1)]),
    # a 4-cycle and an isolated vertex in each class
    bipartite_from_edges(3, 3, [(0, 0), (0, 1), (2, 0), (2, 1)]),
    # a path a0..a2 and a 4-cycle through a3 and a4: the first chunk of roots
    # shows the graph disconnected, and the cycle is in the last chunk at
    # chunks of 3 and 1 roots
    bipartite_from_edges(
        5, 6, [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2), (3, 3), (4, 2), (4, 3)]
    ),
]


def with_edge_cases(test):
    for g in EDGE_CASES:
        test = example(g=g)(test)
    return test


@pytest.mark.parametrize(
    "chunk,girth_first",
    [
        # girth first keeps the bare chunk size as its id
        pytest.param(chunk, first, id=str(chunk) if first else f"{chunk}-diameter-first")
        for chunk in (1024, 3, 1)
        for first in (True, False)
    ],
)
@settings(max_examples=300, deadline=None)
@given(g=bipartite_graphs())
@with_edge_cases
def test_kernels_match_bfs_oracles(chunk, girth_first, g):
    # a fresh copy, so each chunk size searches anew: an explicit example is
    # one graph object, which stores its girth and diameter on first use
    g = induced_subgraph(g, range(g.n_vertices))
    want = bfs_diameter(g)
    with pytest.MonkeyPatch.context() as mp:
        # a bit budget of chunk bitsets of n bits each: 3 and 1 split roots
        mp.setattr(graphs, "ROOT_BITS", chunk * g.n_vertices)
        # diameter first reads the girth its full pass stored
        if girth_first:
            assert girth(g) == bfs_girth(g)
        assert diameter(g) == (math.inf if want is None else want)
        assert girth(g) == bfs_girth(g)


@settings(max_examples=300, deadline=None)
@given(g=bipartite_graphs())
@with_edge_cases
def test_degrees_match_edge_recount(g):
    count = Counter(v for edge in g.edges() for v in edge)
    da = {count[v] for v in range(g.n_a)}
    db = {count[v] for v in range(g.n_a, g.n_vertices)}
    assert g.degree_sets() == (da, db)
    assert g.degree_sets() is g.degree_sets()
    assert g.degrees() == ((min(da), min(db)) if len(da) == len(db) == 1 else None)


@settings(max_examples=300, deadline=None)
@given(g=bipartite_graphs())
@with_edge_cases
def test_degree_sets_match_adjacency(g):
    # counted off adj_a, the degree sets are the row lengths of adjacency()
    adj = g.adjacency()
    want = {len(row) for row in adj[: g.n_a]}, {len(row) for row in adj[g.n_a :]}
    assert g.degree_sets() == want


@st.composite
def raw_edge_lists(draw):
    """Up to 12 vertices and distinct edges in either orientation, self-loops
    allowed; half the time only edges across a random 2-colouring are kept,
    so both bipartite inputs (often with isolated vertices) and odd cycles
    are common."""
    n = draw(st.integers(1, 12))
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n))
    if draw(st.booleans()):
        side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        edges = [(a, b) for a, b in edges if side[a] != side[b]]
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, [(b, a) if f else (a, b) for (a, b), f in zip(edges, flips)]


@settings(max_examples=300, deadline=None)
@given(case=raw_edge_lists())
def test_graph_from_edges_matches_two_colouring(case):
    n, edges = case
    colour = two_colouring(n, edges)
    if colour is None:
        with pytest.raises(GraphError, match="input graph is not bipartite"):
            graph_from_edges(n, edges)
        return
    index = [colour[:v].count(colour[v]) for v in range(n)]
    want = sorted(
        (index[a], index[b]) if colour[a] == 0 else (index[b], index[a]) for a, b in edges
    )
    g = graph_from_edges(n, edges)
    assert (g.n_a, g.n_b) == (colour.count(0), colour.count(1))
    assert sorted((a, b - g.n_a) for a, b in g.edges()) == want


def _strictly_ascending(rows) -> bool:
    return all(a < b for row in rows for a, b in zip(row, row[1:]))


@st.composite
def incidence_structures(draw):
    """Up to 8 points and 8 non-empty blocks of distinct points, each listed
    in any order."""
    n = draw(st.integers(1, 8))
    point = st.integers(0, n - 1)
    block = st.lists(point, min_size=1, max_size=n, unique=True)
    blocks = draw(st.lists(block, min_size=1, max_size=8))
    return IncidenceStructure([None] * n, blocks)


@settings(max_examples=300, deadline=None)
@given(s=incidence_structures(), data=st.data(), case=raw_edge_lists())
def test_builders_make_ascending_rows(s, data, case):
    # the constructor stores rows as given, so each builder must hand it rows
    # that are ascending, in range and free of repeats
    g = levi(s)
    keep = data.draw(st.sets(st.integers(0, g.n_vertices - 1)))
    built = [g, induced_subgraph(g, keep)]
    n, edges = case
    if two_colouring(n, edges) is not None:
        built.append(graph_from_edges(n, edges))
    for h in built:
        assert len(h.adj_a) == h.n_a
        assert _strictly_ascending(h.adj_a)
        assert all(0 <= b < h.n_b for row in h.adj_a for b in row)
        assert _strictly_ascending(h.adjacency())
    assert g.adj_a == s.point_blocks


@settings(max_examples=200, deadline=None)
@given(case=raw_edge_lists(), data=st.data())
def test_graph_from_edges_rejects_a_repeated_edge(case, data):
    n, edges = case
    if not edges or two_colouring(n, edges) is None:
        return
    a, b = data.draw(st.sampled_from(edges))
    again = (b, a) if data.draw(st.booleans()) else (a, b)
    pos = data.draw(st.integers(0, len(edges)))
    with pytest.raises(GraphError, match="has a repeated edge"):
        graph_from_edges(n, edges[:pos] + [again] + edges[pos:])


def _graph6_edges(n, body):
    """The edges of a graph6 body read bit by bit: edge (i, j) is bit
    j(j-1)/2 + i, six bits to a byte from the high bit, each byte offset by 63."""
    return [
        (i, j)
        for j in range(n)
        for i in range(j)
        if (body[(j * (j - 1) // 2 + i) // 6] - 63) & 32 >> (j * (j - 1) // 2 + i) % 6
    ]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 80), data=st.data())
def test_from_graph6_matches_bit_by_bit_decode(n, data):
    # padding bits and bytes past the triangle are ignored
    size = -(-n * (n - 1) // 12)
    raw = data.draw(st.binary(min_size=size, max_size=size + 3))
    body = bytes(63 + b % 64 for b in raw)
    head = bytes([63 + n]) if n < 63 else b"~" + bytes(63 + (n >> s & 63) for s in (12, 6, 0))
    assert from_graph6(head + body) == (n, _graph6_edges(n, body))


_SEEDS = [
    b"Bw\n",
    b">>graph6<<DQc\n",
    b"~??@" + b"?" * 10,
    b"p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n",
    b"c comment\np edge 2 1\ne 1 2\n",
    b"7 7 3\n0 1 2\n0 3 4\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n2 4 5\n",
]


@st.composite
def hostile_bytes(draw):
    """Random bytes, or a valid graph6/DIMACS/design file cut short and
    with some bytes replaced."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    data = bytearray(draw(st.sampled_from(_SEEDS)))
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(data) - 1))
        data[pos] = draw(st.integers(0, 255))
    return bytes(data[: draw(st.integers(0, len(data)))])


@settings(max_examples=500, deadline=None)
@given(data=hostile_bytes())
def test_readers_raise_only_their_own_errors(data):
    for read in (from_graph6, from_dimacs):
        try:
            read(data)
        except GraphError:
            pass
    try:
        design_load(data.decode("latin-1"))
    except DesignError:
        pass


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=64))
def test_design_load_raises_only_design_errors(text):
    try:
        design_load(text)
    except DesignError:
        pass


_SPACES = [(2, 3), (3, 2), (3, 3)]


@lru_cache(maxsize=None)
def _pair_scan_lines(d, q):
    """Every line of PG(d, q), deduplicated over all point pairs."""
    space = pg_space(d, field_of_order(q))
    n = len(space.points)
    return sorted(
        {space.line_through(i, j) for i in range(n) for j in range(i + 1, n)}
    )


def _expected_lines_in(d, q, ids):
    inside = set(ids)
    return [line for line in _pair_scan_lines(d, q) if inside.issuperset(line)]


@st.composite
def space_and_point_list(draw):
    """PG(2,3), PG(3,2) or PG(3,3) and a point list (repeats allowed): some
    whole lines, some extra points, some points taken away again."""
    d, q = draw(st.sampled_from(_SPACES))
    lines = _pair_scan_lines(d, q)
    n = len(pg_points(d, field_of_order(q)))
    ids = set()
    for line in draw(st.lists(st.sampled_from(lines), max_size=6)):
        ids.update(line)
    ids.update(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    ids.difference_update(draw(st.sets(st.integers(0, n - 1), max_size=4)))
    order = draw(st.permutations(sorted(ids)))
    return d, q, order + order[: draw(st.integers(0, len(order)))]


@settings(max_examples=300, deadline=None)
@given(case=space_and_point_list())
def test_lines_in_matches_pair_scan(case):
    d, q, ids = case
    space = pg_space(d, field_of_order(q))
    assert lines_in(space, ids) == _expected_lines_in(d, q, ids)


@pytest.mark.parametrize("d,q", _SPACES)
def test_lines_in_boundary_sets(d, q):
    space = pg_space(d, field_of_order(q))
    everything = range(len(space.points))
    line = space.line_through(0, len(space.points) - 1)
    assert lines_in(space, []) == []
    assert lines_in(space, [5]) == []
    assert lines_in(space, line) == [line]
    assert lines_in(space, line[:-1]) == []
    assert lines_in(space, everything) == _pair_scan_lines(d, q)


@pytest.mark.parametrize("q", [2, 3])
def test_lines_in_hyperbolic_quadric(q):
    # X0 X1 + X2 X3 = 0 in PG(3, q): (q+1)^2 points on 2(q+1) lines
    field = field_of_order(q)
    space = pg_space(3, field)
    add, mul = field.add, field.mul
    on = [
        p.id
        for p in space.points
        if add(mul(p.coords[0], p.coords[1]), mul(p.coords[2], p.coords[3])) == 0
    ]
    assert len(on) == (q + 1) ** 2
    lines = lines_in(space, on)
    assert len(lines) == 2 * (q + 1)
    assert lines == _expected_lines_in(3, q, on)


# PG(2, 4) checks the section scan where field addition is not integer
# addition modulo q
_SECTION_SPACES = _SPACES + [(2, 4)]


@st.composite
def sectioned_structures(draw):
    """Up to 12 points of PG(2, q) or PG(3, q) (q = 2, 3, and PG(2, 4); repeats
    allowed), a hyperplane h, and up to 40 blocks: each drawn inside h or
    tangent to it, except at most two drawn at random (so often violating)
    or naming a point outside the structure; so one bad block hides among
    many good ones.  Blocks may repeat a point and may have one point or
    none, and reach 17 points, so a packed count can take 5 bits.  The
    blocks come as a tuple of tuples or as a list of lists."""
    d, q = draw(st.sampled_from(_SECTION_SPACES))
    field = field_of_order(q)
    coords = [p.coords for p in pg_points(d, field)]
    pts = draw(st.lists(st.sampled_from(coords), min_size=1, max_size=12))
    h = Hyperplane(draw(st.sampled_from(coords)))
    on = [i for i, c in enumerate(pts) if field.dot(h.coeffs, c) == 0]
    off = [i for i, c in enumerate(pts) if field.dot(h.coeffs, c) != 0]
    any_id = st.integers(0, len(pts) - 1)
    kinds = draw(st.lists(st.sampled_from(["inside", "tangent"]), max_size=40))
    for _ in range(draw(st.integers(0, 2)) if kinds else 0):
        kinds[draw(st.integers(0, len(kinds) - 1))] = draw(st.sampled_from(["random", "bad id"]))
    blocks = []
    for kind in kinds:
        if kind == "inside" and on:
            blk = draw(st.lists(st.sampled_from(on), max_size=17))
        elif kind == "tangent" and on and off:
            blk = [draw(st.sampled_from(on))] + draw(st.lists(st.sampled_from(off), max_size=16))
        elif kind == "bad id":
            bad = draw(st.sampled_from([-1, len(pts)]))
            blk = draw(st.lists(any_id, max_size=16)) + [bad]
        else:
            blk = draw(st.lists(any_id, max_size=17))
        blocks.append(draw(st.permutations(blk)))
    if draw(st.booleans()):
        blocks = tuple(map(tuple, blocks))
    return pts, blocks, h, field


@settings(max_examples=300, deadline=None)
@given(case=sectioned_structures())
def test_hyperplane_section_matches_block_scan(case):
    pts, blocks, h, field = case
    n = len(pts)
    bad = [bi for bi, blk in enumerate(blocks) if any(not 0 <= x < n for x in blk)]
    if bad:
        x = next(x for x in blocks[bad[0]] if not 0 <= x < n)
        with pytest.raises(GeometryError) as got:
            hyperplane_section(pts, blocks, h, field)
        assert str(got.value) == f"block {bad[0]} has out-of-range point index {x}"
        return
    try:
        want = scan_section(pts, blocks, h, field)
    except GeometryError as exc:
        with pytest.raises(GeometryError) as got:
            hyperplane_section(pts, blocks, h, field)
        assert str(got.value) == str(exc)
    else:
        assert hyperplane_section(pts, blocks, h, field) == want
