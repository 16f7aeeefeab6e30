"""Hypothesis properties: the bit-parallel girth and diameter kernels against
the per-root BFS oracles, and the file readers against hostile input."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bfs_diameter, bfs_girth

from bbcage import graphs
from bbcage.designs import DesignError, design_load
from bbcage.graphs import (
    BipartiteGraph,
    GraphError,
    diameter,
    from_dimacs,
    from_graph6,
    girth,
)


@st.composite
def bipartite_graphs(draw):
    """Any bipartite graph with at most 10 vertices per class: forests,
    disconnected graphs, isolated vertices, an empty class, one vertex."""
    n_a = draw(st.integers(0, 10))
    n_b = draw(st.integers(0, 10))
    pairs = [(a, b) for a in range(n_a) for b in range(n_b)]
    edges = ()
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs), max_size=3 * (n_a + n_b)))
    return BipartiteGraph.from_edges(n_a, n_b, sorted(edges))


@pytest.mark.parametrize("chunk", [graphs.ROOT_CHUNK, 3, 1])
@settings(max_examples=300, deadline=None)
@given(g=bipartite_graphs())
def test_kernels_match_bfs_oracles(chunk, g):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "ROOT_CHUNK", chunk)
        assert girth(g) == bfs_girth(g)
        want = bfs_diameter(g)
        if want is None:
            with pytest.raises(GraphError, match="disconnected"):
                diameter(g)
        else:
            assert diameter(g) == want


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
