"""Prunes of generalized-polygon incidence graphs and direct affine
constructions.

The prunes keep carefully chosen distance sets around an anchor edge of a
certified polygon's incidence graph; the affine constructions build
biregular graphs of girth at least 8 and at least 6: from a slab of planes in
PG(3, p) and the affine lines through the first points of a conic, and from
horizontal lines of AG(2, p).  Their rows are written in closed form mod p,
after the checks and order of affine_slab_order or affine_girth6_order,
which construct calls before it builds anything.  The slab's ideal line,
planes and conic directions are in closed form too (_slab_geometry), so no
list of projective points is built.
"""

from __future__ import annotations

import itertools
import math

from .bounds import moore_odd
from .gf import prime_power
from .graphs import (
    BipartiteGraph, ConstructionError, GraphError, bfs_order,
    biregular_pair, diameter, expect, expect_biregular, girth, induced_subgraph,
)


def _anchor(
    g: BipartiteGraph, edge: tuple[int, int] | None
) -> tuple[int, int, int, list[list[int]]]:
    """Certify a prune host and pick its anchor edge; returns (r, u, v, adj)
    with adj the host's global adjacency, which the prune's own searches
    share.

    The host must be connected and biregular with girth = 2 * diameter (the
    incidence graph of a generalized r-gon).  Without an edge the anchor is
    the lexicographically first edge, oriented so that v is the endpoint of
    smaller degree (ties keep the block-side endpoint as v).
    """
    if edge is not None:
        _ints("anchor u, anchor v", *edge)
    biregular_pair(g)  # raises GraphError unless biregular
    r = diameter(g)
    if r == math.inf:
        raise GraphError("diameter of a disconnected graph")
    if girth(g) != 2 * r:
        raise ValueError(f"host girth {girth(g)} != 2 * diameter {2 * r}")
    adj = g.adjacency()
    u, v = edge if edge is not None else (0, adj[0][0])
    if not 0 <= u < len(adj) or v not in adj[u]:
        raise ValueError(f"anchor ({u}, {v}) is not an edge")
    if edge is None and len(adj[u]) < len(adj[v]):
        u, v = v, u
    return r, u, v, adj


def _ints(names: str, *values) -> None:
    """Refuse, before any use, a value that is not an int, by its name in names."""
    for name, x in zip(names.split(", "), values):
        if not isinstance(x, int):
            raise ValueError(f"{name} {x!r} is not an int")


def _branches(adj, anchor: int, depth: int) -> tuple[list[int], list[int]]:
    """Distances from anchor and, up to depth < r, the branch of each vertex:
    the anchor's neighbour that its one shortest path leaves by (girth 2r),
    so d(root, w) = d(anchor, w) - 1 exactly when branch[w] is root; the
    anchor and the vertices at depth r or more keep branch -1."""
    dist = [-1] * len(adj)
    order = bfs_order(adj, dist, anchor)
    branch = [-1] * len(adj)
    for w in adj[anchor]:
        branch[w] = w
    for x in order[1:]:
        if dist[x] >= depth:
            break
        for y in adj[x]:
            if dist[y] > dist[x]:
                branch[y] = branch[x]
    return dist, branch


def induced_branch_graph(
    g: BipartiteGraph, m1: int, n1: int, edge: tuple[int, int] | None = None
) -> BipartiteGraph:
    """Induced subgraph on the deepest distance sets of m1 branch roots at one
    end of an anchor edge and n1 at the other (the anchor partner may be the
    last root on a side whose opposite side is taken in full).

    For a host that certifies as an r-gon of order (s, t) this is an
    (m1, n1; 2r) biregular graph on (m1 + n1) * (st)^(r/2 - 1) vertices; the
    order must stay below the odd-case bound at girth 2(r+1), which forces the
    girth back down to 2r.
    """
    r, u, v, adj = _anchor(g, edge)
    if not 2 <= m1 <= n1:
        raise ValueError(f"need 2 <= m1 <= n1, got ({m1}, {n1})")
    branches_v = [w for w in adj[v] if w != u]
    branches_u = [w for w in adj[u] if w != v]
    # The anchor partner can serve as one extra branch root (its distance set
    # has the same cardinality), but only when the opposite side takes all of
    # its own genuine branches, else that set picks up short-degree vertices.
    roots_v = branches_v[:m1]
    roots_u = branches_u[:n1]
    if m1 == len(branches_v) + 1 and n1 == len(branches_u):
        roots_v = branches_v + [u]
    elif n1 == len(branches_u) + 1 and m1 == len(branches_v):
        roots_u = branches_u + [v]
    elif m1 > len(branches_v) or n1 > len(branches_u):
        raise ValueError(
            f"need m1 <= {len(branches_v)} and n1 <= {len(branches_u)} "
            f"(one more on a side only when the other side is full), "
            f"got ({m1}, {n1})"
        )
    s = len(adj[v]) - 1
    t = len(adj[u]) - 1
    order = (m1 + n1) * (s * t) ** (r // 2 - 1)
    ceiling = moore_odd(m1, n1, r + 1)
    if order >= ceiling:
        raise ValueError(
            f"hypothesis fails: order {order} is not below the girth-{2 * (r + 1)} "
            f"bound {ceiling}"
        )
    keep = set()
    for anchor, roots in ((v, roots_v), (u, roots_u)):
        dist, branch = _branches(adj, anchor, r - 1)
        roots = set(roots)
        keep.update(w for w, d in enumerate(dist) if d == r - 1 and branch[w] in roots)
    return expect_biregular(induced_subgraph(g, keep), m1, n1, 2 * r, order, "branch prune")


def mixed_degree_prune(
    g: BipartiteGraph, edge: tuple[int, int] | None = None
) -> BipartiteGraph:
    """Prune a certified r-gon incidence graph of order (s, t) down to an
    (s, t+1; 2r) biregular graph on (st)^(r/2 - 1) * (s + t + 1) vertices.

    Keeps the shells at distances r - 2, r - 1 and r from v, less the first
    branch's, around the anchor edge (u, v); the degree contract is verified
    by measurement and any failure aborts loudly; s = 1 (a thin host) is
    refused first.  Swapping the anchor orientation yields the (s+1, t; 2r) twin.
    """
    r, u, v, adj = _anchor(g, edge)
    s, t = len(adj[v]) - 1, len(adj[u]) - 1
    if s == 1:  # a class of degree s = 1 closes no cycle, so girth 2r cannot hold
        raise ValueError(f"thin host: anchor vertex {v} has degree 2, so s = 1 < 2")
    first = next(w for w in adj[v] if w != u)
    dv, branch = _branches(adj, v, r - 1)
    keep = [w for w, d in enumerate(dv) if d >= r - 2 and branch[w] != first]
    # (st)^(r/2 - 1): a square root when r is odd, as then s = t (a projective
    # plane's incidence graph, r = 3, gives an (s, s+1; 6) graph)
    order = math.isqrt((s * t) ** (r - 2)) * (s + t + 1)
    return expect_biregular(induced_subgraph(g, keep), s, t + 1, 2 * r, order, "mixed prune")


def find_free_edge(g: BipartiteGraph) -> tuple[int, int]:
    """In the incidence (Levi) graph of a generalized quadrangle of order
    (s, t) with s, t >= 3, find an incident (point, line) pair where the point
    is collinear with no vertex of some proper quadrangle and the line meets
    none of its sides.

    Returns (point index, block index), the anchor for induced_branch_graph.
    """
    pair = g.degrees()
    if pair is None:
        raise ValueError("structure is not an order-uniform quadrangle")
    t, s = pair[0] - 1, pair[1] - 1
    if s < 3 or t < 3:
        raise ValueError(f"needs order at least (3, 3), got ({s}, {t})")
    if girth(g) != 8:
        raise ValueError(f"structure is not a quadrangle: incidence girth {girth(g)}")
    adj = g.adjacency()
    # A cycle of a bipartite graph alternates classes: four points, four sides.
    cycle = _girth_cycle_through(adj, 0, 8)
    near = set()
    side_points = set()
    for x in cycle:
        if x < g.n_a:
            for line in adj[x]:
                near.update(adj[line])
        else:
            side_points.update(adj[x])
    for e_point in range(g.n_a):
        if e_point in near:
            continue
        for bi in g.adj_a[e_point]:
            if not side_points.intersection(adj[g.n_a + bi]):
                return e_point, bi
    raise ConstructionError("no free incident point-line pair found")


def _girth_cycle_through(adj, root: int, length: int) -> list[int]:
    """Vertices of a cycle of the given length through root, via BFS parents:
    a vertex's parent is its first neighbour one level up in visit order."""
    dist = [-1] * len(adj)
    parent = [-1] * len(adj)

    def chain(w: int) -> list[int]:  # w and its BFS ancestors, up to root
        path = []
        while w != -1:
            path.append(w)
            w = parent[w]
        return path

    for x in bfs_order(adj, dist, root):
        for y in adj[x]:
            if parent[y] < 0 and dist[y] == dist[x] + 1:
                parent[y] = x
            elif y != parent[x] and dist[x] + dist[y] + 1 == length:
                path_x, path_y = chain(x), chain(y)
                if set(path_x).intersection(path_y) != {root}:
                    continue
                return path_x[::-1] + path_y[:-1]
    raise ConstructionError(f"no cycle of length {length} through vertex {root}")


def affine_slab_order(q: int, m1: int, n1: int) -> int:
    """The order of affine_slab_graph(q, m1, n1), once its parameters
    pass the checks that the builder and construct share."""
    _ints("q, m1, n1", q, m1, n1)
    p, k = prime_power(q)
    if k != 1:
        raise ValueError("slab construction needs a prime field")
    if not 2 <= m1 <= p:
        raise ValueError(f"need 2 <= m1 <= {p}, got {m1}")
    if not 2 <= n1 <= p + 1:
        raise ValueError(f"need 2 <= n1 <= {p + 1} conic points, got {n1}")
    return (m1 + n1) * p * p


def _slab_geometry(p: int, m1: int, n1: int):
    """The slab's ideal line u, its first m1 planes and its first n1 conic
    directions, in closed form in the ideal plane X0 = 0, numbered as
    PG(2, p) and so as in PG(3, p).

    The conic X1^2 = X0 X2 is (0, 0, 1) and then (1, t, t^2), t = 0..p-1,
    in id order.  A line missing the conic misses (0, 0, 1), so its two
    smallest points are (0, 1, t) and (1, 0, b), and it misses the conic
    exactly when x^2 - t x - b has no root mod p (Hirschfeld, Projective
    Geometries over Finite Fields).  The first such line in sorted point
    order has the least such (t, b); its coordinates are the cross product
    (b, t, -1) of those two points.  The planes through it other than
    X0 = 0 are (c, u), and normalized coordinates sort in PG(3, p) id order.
    """

    def lead_one(v):
        s = pow(next(x for x in v if x), -1, p)
        return tuple(s * x % p for x in v)

    t, b = next((t, b) for t in range(p) for b in range(p)
                if all((x * x - t * x - b) % p for x in range(p)))
    u = lead_one((b, t, p - 1))
    planes = sorted(lead_one((c, *u)) for c in range(p))[:m1]
    conic = [(0, 0, 1)] + [(1, x, x * x % p) for x in range(p)]
    return u, planes, conic[:n1]


def affine_slab_graph(q: int, m1: int, n1: int) -> BipartiteGraph:
    """Biregular graph of girth at least 8 from PG(3, p), p prime: V1 is the
    affine point set of m1 planes through a line of the ideal plane disjoint
    from the conic X1^2 = X0 X2, V2 the affine lines through its first n1
    points; degrees are (n1, m1) with |V1| = m1*p^2 and |V2| = n1*p^2.

    The ideal line, planes and directions come in closed form from
    _slab_geometry, with no point list of the ideal plane: the work grows
    with the output.
    """
    order, p = affine_slab_order(q, m1, n1), q
    u, planes, directions = _slab_geometry(p, m1, n1)
    # the affine point (1, x) lies on the plane (h0, w) when h0 + w . x = 0;
    # w = w[lead] * u: a plane's p^2 points solve u . x = -h0 / w[lead]
    lead = u.index(1)
    slab = []
    for h0, *w in planes:
        c = -h0 * pow(w[lead], -1, p)
        for rest in itertools.product(range(p), repeat=2):
            x = [*rest[:lead], 0, *rest[lead:]]
            x[lead] = (c - sum(a * b for a, b in zip(u, x))) % p
            slab.append(tuple(x))
    slab.sort()  # numbered in coordinate order
    # x lies on the line k p^2 + r[i1] p + r[i2] of the k-th direction d,
    # r = x - x[j] d with r[j] = 0 (j the lead of d, i1 < i2 the others)
    lines = []
    for k, d in enumerate(directions):
        j = d.index(1)
        i1, i2 = (i for i in range(3) if i != j)
        lines.append((k * p * p, j, i1, d[i1], i2, d[i2]))
    rows = [[base + (x[i1] - x[j] * d1) % p * p + (x[i2] - x[j] * d2) % p
             for base, j, i1, d1, i2, d2 in lines] for x in slab]
    g = BipartiteGraph(len(slab), n1 * p * p, rows)
    expect(g.n_vertices == order, f"slab order {g.n_vertices} != {order}")
    da, db = g.degree_sets()
    expect(g.degrees() == (n1, m1), f"slab degrees {sorted(da)}/{sorted(db)}")
    return g


def affine_girth6_order(q: int, m1: int, n1: int) -> int:
    """The order of affine_girth6_graph(q, m1, n1), once its parameters
    pass the checks that the builder and construct share."""
    _ints("q, m1, n1", q, m1, n1)
    p, k = prime_power(q)
    if k != 1:
        raise ValueError("affine construction needs a prime field")
    if not 2 <= m1 <= p:
        raise ValueError(f"only {p} horizontal lines are affine, got m1={m1}")
    if not 2 <= n1 <= p:
        raise ValueError(f"only {p} non-horizontal directions exist, got n1={n1}")
    return (m1 + n1) * p


def affine_girth6_graph(q: int, m1: int, n1: int) -> BipartiteGraph:
    """Bipartite graph from AG(2, p), p prime: V1 the points of m1 horizontal
    lines, V2 the affine lines through n1 non-horizontal directions; degrees
    (n1, m1), no 4-cycles.  The girth is not measured here: it is at least 6,
    and exactly 6 once triangles fit (m1, n1 >= 3)."""
    order, p = affine_girth6_order(q, m1, n1), q
    # point (x, y) is y p + x; line k p + c of the k-th direction, slopes
    # 1..p-1 and then the vertical, is a y + b x = c: y - s x = c, or x = c
    directions = [(1, -s) for s in range(1, p)] + [(0, 1)]
    chosen = [(k * p, a, b) for k, (a, b) in enumerate(directions[:n1])]
    rows = [[base + (a * y + b * x) % p for base, a, b in chosen]
            for y in range(m1) for x in range(p)]
    g = BipartiteGraph(m1 * p, n1 * p, rows)
    expect(g.n_vertices == order, f"affine order {g.n_vertices} != {order}")
    da, db = g.degree_sets()
    expect(g.degrees() == (n1, m1), f"affine degrees {sorted(da)}/{sorted(db)}")
    return g
