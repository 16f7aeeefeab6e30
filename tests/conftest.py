"""Shared test oracles, kept independent of the library's own algorithms."""

from __future__ import annotations

import math
from collections import deque

import pytest


def bipartite_from_edges(n_a: int, n_b: int, edges):
    """A BipartiteGraph from distinct (class-A index, class-B index) pairs,
    each row sorted as the constructor requires."""
    from bbcage.graphs import BipartiteGraph

    adj = [[] for _ in range(n_a)]
    for a, b in edges:
        adj[a].append(b)
    return BipartiteGraph(n_a, n_b, map(sorted, adj))


def two_colouring(n: int, edges):
    """Class (0 for A, 1 for B) of each vertex 0..n-1 of a raw edge list,
    each component's smallest vertex in class A; None when an odd cycle or a
    self-loop exists.  A parity union-find whose roots are always the
    smallest vertex of their component, independent of the library's BFS."""
    parent, parity = list(range(n)), [0] * n

    def find(x):
        p = 0
        while parent[x] != x:
            p ^= parity[x]
            x = parent[x]
        return x, p

    for a, b in edges:
        (ra, pa), (rb, pb) = find(a), find(b)
        if ra == rb:
            if pa == pb:
                return None
        else:
            lo, hi = min(ra, rb), max(ra, rb)
            parent[hi], parity[hi] = lo, pa ^ pb ^ 1
    return [find(v)[1] for v in range(n)]


def brute_girth(graph, cap: int = 24):
    """Girth by exhaustive simple-cycle enumeration (DFS with canonical
    smallest-vertex root), independent of the BFS girth routine.

    Returns None when no cycle of length <= cap exists.
    """
    adj = graph.adjacency()
    n = len(adj)
    best = cap + 1
    for s in range(n):
        stack = [(s, 1, {s})]
        while stack:
            x, plen, seen = stack.pop()
            for y in adj[x]:
                if y == s and plen >= 3:
                    if plen < best:
                        best = plen
                elif y > s and y not in seen and plen < best - 1:
                    stack.append((y, plen + 1, seen | {y}))
    return best if best <= cap else None


def _bfs(adj, src):
    dist = [-1] * len(adj)
    dist[src] = 0
    q = deque([src])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                q.append(y)
    return dist


def bfs_girth(graph):
    """Girth by one BFS per class-A root, math.inf for forests: a non-tree
    edge x-y seen from the root closes a walk of dist[x] + dist[y] + 1, and
    the shortest such walk over all roots is a shortest cycle."""
    adj = graph.adjacency()
    best = math.inf
    for root in range(graph.n_a):
        dist = [-1] * len(adj)
        parent = [-1] * len(adj)
        dist[root] = 0
        q = deque([root])
        while q:
            x = q.popleft()
            if 2 * dist[x] >= best:
                break
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
                elif y != parent[x]:
                    best = min(best, dist[x] + dist[y] + 1)
    return best


def bfs_diameter(graph):
    """Largest BFS eccentricity; None for a disconnected graph."""
    adj = graph.adjacency()
    diam = 0
    for v in range(len(adj)):
        dist = _bfs(adj, v)
        if -1 in dist:
            return None
        diam = max(diam, max(dist))
    return diam


def edge_count_conserved(graph) -> bool:
    """m * |larger class| == n * |smaller class| accounting for biregularity."""
    da, db = graph.degree_sets()
    if len(da) != 1 or len(db) != 1:
        return False
    return graph.n_a * next(iter(da)) == graph.n_b * next(iter(db))


def tree_count_oracle(m: int, n: int, r: int) -> int:
    """Independent odd-case bound: explicit power-formula terms (the code path
    under test uses a level recurrence instead)."""
    total = 1 + n
    for i in range(1, (r - 1) // 2 + 1):
        total += n * (m - 1) ** i * (n - 1) ** (i - 1)  # even level 2i
        if 2 * i + 1 <= r - 1:
            total += n * (m - 1) ** i * (n - 1) ** i  # odd level 2i+1
    top = n * (m - 1) ** ((r - 1) // 2) * (n - 1) ** ((r - 1) // 2)
    total += -(-top // m)
    if top % m:
        total += -(-n // m)
    return total


def scan_section(point_coords, blocks, h, field):
    """hyperplane_section by the per-block scan: count each block's points on
    h one by one.  The same outputs and the same GeometryError text, except
    that a point index outside the structure counts as off h."""
    from bbcage.projective import GeometryError

    dot, coeffs = field.dot, h.coeffs
    inside_pts = [i for i, coords in enumerate(point_coords) if dot(coeffs, coords) == 0]
    acc_on = set(inside_pts)
    blocks_inside, blocks_tangent = [], []
    for bi, blk in enumerate(blocks):
        cnt = sum(1 for x in blk if x in acc_on)
        if cnt == len(blk):
            blocks_inside.append(bi)
        elif cnt == 1:
            blocks_tangent.append(bi)
        else:
            raise GeometryError(
                f"block {bi} meets the hyperplane in {cnt} of {len(blk)} points"
            )
    return inside_pts, blocks_inside, blocks_tangent


@pytest.fixture
def girth_searches(monkeypatch):
    """Every graph the girth search runs on, in call order.  The list keeps
    the graphs alive, so a repeated id means one graph searched twice."""
    from bbcage import graphs

    searched = []
    search = graphs._girth_search

    def counting(g):
        searched.append(g)
        return search(g)

    monkeypatch.setattr(graphs, "_girth_search", counting)
    return searched


@pytest.fixture
def degree_measures(monkeypatch):
    """Every graph whose degree sets are measured (not read back), in call
    order.  The list keeps the graphs alive, so a repeated id means one graph
    measured twice."""
    from bbcage.graphs import BipartiteGraph

    measured = []
    degree_sets = BipartiteGraph.degree_sets

    def counting(g):
        if g._degree_sets is None:
            measured.append(g)
        return degree_sets(g)

    monkeypatch.setattr(BipartiteGraph, "degree_sets", counting)
    return measured
