"""Shared test oracles, kept independent of the library's own algorithms."""

from __future__ import annotations

import itertools
import math
from collections import deque
from functools import lru_cache

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


def structure_delete(structure, point_ids, block_ids):
    """Reference deletion at the structure level: drop the blocks, strip the
    points from the rest, relabel the remaining points in order and build
    the incidence graph of what is left afresh."""
    from bbcage.graphs import levi
    from bbcage.incidence import IncidenceStructure

    points, blocks = set(point_ids), set(block_ids)
    remap = {}
    for x in range(structure.num_points):
        if x not in points:
            remap[x] = len(remap)
    kept = [
        tuple(remap[x] for x in blk if x not in points)
        for bi, blk in enumerate(structure.blocks)
        if bi not in blocks
    ]
    return levi(IncidenceStructure([None] * len(remap), kept))


def reference_steiner_truncate(design, point: int = 0):
    """steiner_truncate as it was when it built a host: the design's
    incidence structure (whose block checks become DesignError), its Levi
    graph, and the induced subgraph on all but the point and the blocks
    through it.  The degree and girth contract is left to the caller."""
    from bbcage.designs import DesignError
    from bbcage.graphs import induced_subgraph, levi
    from bbcage.incidence import IncidenceStructure

    try:
        structure = IncidenceStructure([None] * design.v, design.blocks)
    except ValueError as exc:  # a block point outside 0..v-1, or repeated
        raise DesignError(str(exc)) from exc
    host = levi(structure)
    doomed = {point, *(host.n_a + b for b in host.adj_a[point])}
    return induced_subgraph(host, (x for x in range(host.n_vertices) if x not in doomed))


def reference_design_validate(design):
    """design_validate as it was before it skipped the pair walk: every one of
    the C(v, 2) point pairs is looked up to list the uncovered ones."""
    from collections import Counter

    from bbcage.designs import DesignReport

    problems = []
    sizes = {len(b) for b in design.blocks}
    uniform = len(sizes) == 1
    if not uniform:
        problems.append(f"block sizes {sorted(sizes)} are not uniform")
    points = range(design.v)
    outside = sorted(set().union(*design.blocks).difference(points))
    if outside:
        problems.append(f"points outside 0..{design.v - 1}: {outside[:10]}")
    blocks = [sorted(x for x in blk if x in points) if outside else sorted(blk)
              for blk in design.blocks]
    pair_count = Counter(
        itertools.chain.from_iterable(itertools.combinations(blk, 2) for blk in blocks)
    )
    multi = sorted(k for k, c in pair_count.items() if c > 1)
    uncovered = [pair for pair in itertools.combinations(points, 2) if pair not in pair_count]
    pair_ok = not multi and not uncovered
    if multi:
        problems.append(f"pairs covered more than once: {multi[:10]}")
    if uncovered:
        problems.append(f"uncovered pairs: {uncovered[:10]}")
    count = Counter(itertools.chain.from_iterable(blocks))
    reps = [count[x] for x in points]
    rep_ok = len(set(reps)) == 1
    if not rep_ok:
        problems.append(f"replication numbers {sorted(set(reps))} are not uniform")
    return DesignReport(
        valid=uniform and pair_ok and rep_ok and not outside,
        uniform_block_size=uniform,
        pair_coverage=pair_ok,
        uniform_replication=rep_ok,
        problems=problems,
    )


def bfs_distances(adj, src):
    """Distances from src over the adjacency lists adj, -1 where unreached:
    a deque BFS, independent of the library's bfs_order."""
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


def reference_mixed_keep(adj, r, u, v):
    """The vertices mixed_degree_prune keeps around the anchor (u, v) of an
    r-gon's incidence graph, by the rule it kept while it searched from both
    ends of the anchor: d(v, w) >= r - 2, and either d(v, w) = d(u, w) + 1
    or w's branch at v is one of v's neighbours other than u and the first.
    A vertex's branch is the neighbour of v that its one shortest path from
    v leaves by, read off its one neighbour closer to v."""
    du, dv = bfs_distances(adj, u), bfs_distances(adj, v)
    branch = {x: x for x in adj[v]}
    for w in sorted(range(len(adj)), key=dv.__getitem__):
        if 1 < dv[w] < r:
            (branch[w],) = {branch[y] for y in adj[w] if dv[y] == dv[w] - 1}
    roots = set([w for w in adj[v] if w != u][1:])
    return [w for w, d in enumerate(dv)
            if d >= r - 2 and (d == du[w] + 1 or branch.get(w) in roots)]


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
        dist = bfs_distances(adj, v)
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


def holds_only_adj_a_and_invariants(graph) -> bool:
    """Whether a graph keeps just its class sizes, adj_a, its measured
    invariants and scalar records in meta (hyperplane_delete records its
    girth there): no adjacency lists, nor any other cache."""
    degree_sets = graph._degree_sets
    return (
        not hasattr(graph, "__dict__")
        and type(graph).__slots__
        == ("n_a", "n_b", "adj_a", "meta", "_degree_sets", "_girth", "_diameter")
        and type(graph.adj_a) is tuple
        and all(type(row) is tuple for row in graph.adj_a)
        and (degree_sets is None or list(map(type, degree_sets)) == [frozenset] * 2)
        and all(
            isinstance(x, (int, float, type(None)))
            for x in (graph.n_a, graph.n_b, graph._girth, graph._diameter)
        )
        and type(graph.meta) is dict
        and all(isinstance(x, (int, float, str)) for x in graph.meta.values())
    )


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
    """Every graph whose girth a level search looks for, in call order: the
    engine searches for cycles while the girth is not stored.  The list keeps
    the graphs alive, so a repeated id means one graph searched twice."""
    from bbcage import graphs

    searched = []
    search = graphs._levels

    def counting(g, roots, full):
        if g._girth is None:
            searched.append(g)
        return search(g, roots, full)

    monkeypatch.setattr(graphs, "_levels", counting)
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


class Residues:
    """The integers mod a prime p under Field's method names, for the
    references at a prime over the Field cap, where no Field is made."""

    k = 1

    def __init__(self, p: int):
        self.p = self.q = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def dot(self, u, v) -> int:
        return sum(a * b for a, b in zip(u, v)) % self.p


def inverse(field, a: int) -> int:
    """The inverse of a nonzero a in field, read off a's row of the mul
    table, or by Python's modular pow for Residues."""
    assert a, "0 has no multiplicative inverse"
    if isinstance(field, Residues):
        return pow(a, -1, field.p)
    return field._mul_t[a].index(1)


def digit_add(field, a: int, b: int) -> int:
    """a + b in field, digit by digit base p: the sum of the coordinate
    polynomials, independent of the add table."""
    p, total, place = field.p, 0, 1
    for _ in range(field.k):
        total += (a % p + b % p) % p * place
        a, b, place = a // p, b // p, place * p
    return total


def zorn(coords, field):
    """The trace-zero split octonion of a point of Q(6,q), as a Zorn vector
    matrix (a, v, w, b) with a = X0, v = (X1, X3, X5), w = (X2, X4, X6) and
    b = -X0."""
    a = coords[0]
    v, w = (coords[1], coords[3], coords[5]), (coords[2], coords[4], coords[6])
    return a, v, w, field.neg(a)


def _sub(field, a, b):
    """a - b in field."""
    return field.add(a, field.neg(b))


def _cross(u, v, field):
    m = field.mul
    return (
        _sub(field, m(u[1], v[2]), m(u[2], v[1])),
        _sub(field, m(u[2], v[0]), m(u[0], v[2])),
        _sub(field, m(u[0], v[1]), m(u[1], v[0])),
    )


def zorn_mul(x, y, field):
    """The Zorn vector-matrix product of two split octonions, written out
    from the definition, independent of the library's kernel rows."""
    a1, v1, w1, b1 = x
    a2, v2, w2, b2 = y
    m, add = field.mul, field.add
    cw = _cross(w1, w2, field)
    cv = _cross(v1, v2, field)
    a = add(m(a1, a2), field.dot(v1, w2))
    v = tuple(_sub(field, add(m(a1, v2[i]), m(b2, v1[i])), cw[i]) for i in range(3))
    w = tuple(add(add(m(a2, w1[i]), m(b1, w2[i])), cv[i]) for i in range(3))
    b = add(m(b1, b2), field.dot(w1, v2))
    return a, v, w, b


def zorn_is_zero(x) -> bool:
    a, v, w, b = x
    return a == 0 and b == 0 and not any(v) and not any(w)


def quadric_form(tag: str, field):
    """The form tagged "parabolic-4", "elliptic-5" or "parabolic-6", for
    tests parametrized by tag."""
    from bbcage.projective import elliptic_form, parabolic_form

    form = elliptic_form(field) if tag == "elliptic-5" else parabolic_form(int(tag[-1]), field)
    assert form.tag == tag
    return form


class Space:
    """PG(d, q) on the library's point list pg_points, with generic
    operations that the package has no caller for: normalize, the id map,
    the line walker (rest_of_line, line_through) and, in PG(2, q), join.
    The oracle of lines_in, the slab reference and the quadric-line
    cross-checks."""

    def __init__(self, d: int, field):
        from bbcage.projective import pg_points

        self.field = field
        self.points = pg_points(d, field)
        self._id = {p.coords: p.id for p in self.points}

    def normalize(self, coords) -> tuple[int, ...]:
        """coords scaled so that the first nonzero coordinate is 1."""
        F = self.field
        lead = next(c for c in coords if c != 0)
        if lead == 1:
            return tuple(coords)
        s = inverse(F, lead)
        return tuple(F.mul(s, c) for c in coords)

    def id_of(self, coords) -> int:
        return self._id[self.normalize(coords)]

    def rest_of_line(self, a_id: int, b_id: int):
        """The q - 1 point ids a + lam * b (lam = 1..q-1) of line ab other
        than a and b, one at a time."""
        F = self.field
        a = self.points[a_id].coords
        b = self.points[b_id].coords
        for lam in range(1, F.q):
            yield self.id_of(tuple(F.add(x, F.mul(lam, y)) for x, y in zip(a, b)))

    def line_through(self, a_id: int, b_id: int) -> tuple[int, ...]:
        """The q+1 point ids of the line spanned by two distinct points."""
        from bbcage.projective import GeometryError

        if a_id == b_id:
            raise GeometryError("line_through needs two distinct points")
        return tuple(sorted((a_id, b_id, *self.rest_of_line(a_id, b_id))))

    def join(self, a_id: int, b_id: int) -> tuple[int, ...]:
        """The line of PG(2, q) through two distinct points, as the normalized
        cross product of their coordinates: the coefficients of the one
        hyperplane through both."""
        a, b = self.points[a_id].coords, self.points[b_id].coords
        return self.normalize(_cross(a, b, self.field))


@lru_cache(maxsize=None)
def pg_space(d: int, field) -> Space:
    return Space(d, field)


def conic_oval(field) -> list:
    """The q+1 points (1, t, t^2) and (0, 0, 1) of the conic X1^2 = X0 X2 of
    PG(2, q), in id order."""
    space = pg_space(2, field)
    ids = [space.id_of((1, t, field.mul(t, t))) for t in range(field.q)]
    ids.append(space.id_of((0, 0, 1)))
    return [space.points[i] for i in sorted(ids)]


def first_line_missing(plane, targets: set[int]) -> tuple[int, ...]:
    """The first line of the plane plane (a Space of PG(2, p)), in sorted
    point-tuple order, that misses targets, by the pair walk.  Sorted lines
    differ in their two smallest ids, so it is the line of the first pair
    a < b whose line misses targets."""
    n = len(plane.points)
    for a in sorted(set(range(n)) - targets):
        seen = set(targets)  # and every point on a line already walked from a
        for b in range(a + 1, n):
            if b not in seen:
                line = plane.line_through(a, b)
                if targets.isdisjoint(line):
                    return line
                seen.update(line)
    raise AssertionError("no line disjoint from targets")


def walked_slab_geometry(field, m1: int, n1: int):
    """The slab's ideal line coordinates u, its first m1 planes and its first
    n1 conic directions, from the pair walk over the ideal plane X0 = 0:
    the reference for prune._slab_geometry's closed form."""
    p = field.p
    ideal = pg_space(2, field)
    oval = [pt.id for pt in conic_oval(field)]
    ell = first_line_missing(ideal, set(oval))
    # the planes through ell other than X0 = 0 are (c, u), u the coordinates
    # of ell in the ideal plane; normalized coordinates sort in PG(3, p) id
    # order
    u = ideal.join(ell[0], ell[1])
    planes = sorted(ideal.normalize((c, *u)) for c in range(p))[:m1]
    return u, planes, [ideal.points[i].coords for i in oval[:n1]]


def lines_in(space, ids) -> list[tuple[int, ...]]:
    """Every line of space (a Space) whose q+1 points all lie in
    ids, as sorted id tuples in sorted order: the generic line walker.

    Pairs are taken in sorted order, and the line of each pair not yet
    on a found line is walked point by point and dropped at the first
    point outside ids; so a line is found at its two smallest ids and
    the lines come out sorted.  Coverage is one bitmask per point over
    the positions of sorted(set(ids)).
    """
    members = sorted(set(ids))
    inside = set(members)
    pos = {a: i for i, a in enumerate(members)}
    covered = [0] * len(members)
    full = (1 << len(members)) - 1
    lines = []
    for i, a in enumerate(members):
        rest = full >> (i + 1) << (i + 1) & ~covered[i]
        while rest:
            low = rest & -rest
            rest ^= low
            b = members[low.bit_length() - 1]
            line = [a, b]
            for c in space.rest_of_line(a, b):
                if c not in inside:
                    break
                line.append(c)
            else:
                line.sort()
                lines.append(tuple(line))
                mask = sum(1 << pos[x] for x in line)
                for x in line:
                    covered[pos[x]] |= mask
                rest &= ~mask
    return lines


def parabolic6_lines(field):
    """The points of Q(6,q) as coordinate tuples, and every line of PG(6, q)
    on it in local indices, from the generic line walker lines_in."""
    from bbcage.projective import parabolic_form, quadric_points

    pts = quadric_points(parabolic_form(6, field), field)
    local = {p.id: i for i, p in enumerate(pts)}
    walk = lines_in(pg_space(6, field), local)
    return [p.coords for p in pts], [tuple(map(local.__getitem__, line)) for line in walk]


def octonion_hexagon_lines(field):
    """The split Cayley hexagon's lines in local indices of Q(6,q): the lines
    of Q(6,q) on which the octonion product of two points vanishes.  For two
    points x, y of one quadric line, y.x = -(x.y), so testing the first two
    points tests the line."""
    pts, lines = parabolic6_lines(field)
    octonions = [zorn(c, field) for c in pts]
    return [
        line
        for line in lines
        if zorn_is_zero(zorn_mul(octonions[line[0]], octonions[line[1]], field))
    ]


def reference_affine_slab_graph(field, m1: int, n1: int):
    """The slab graph built through Field methods, one call per incidence,
    and the incidence graph of its lines: the reference for
    prune.affine_slab_graph's closed-form rows."""
    from bbcage.graphs import expect, levi
    from bbcage.incidence import IncidenceStructure

    if field.k != 1:
        raise ValueError("slab construction needs a prime field")
    p = field.p
    if not 2 <= m1 <= p:
        raise ValueError(f"need 2 <= m1 <= {p}, got {m1}")
    if not 2 <= n1 <= p + 1:
        raise ValueError(f"need 2 <= n1 <= {p + 1} conic points, got {n1}")
    _, planes, directions = walked_slab_geometry(field, m1, n1)
    # the affine point (1, x) lies on the plane (h0, w) when h0 + w . x = 0
    lines = []
    for d in directions:
        lead = d.index(1)
        # r + lam * d meets (h0, w) at lam = -(h0 + w . r) / (w . d)
        steps = [field.neg(inverse(field, field.dot(w, d))) for _, *w in planes]
        # the affine lines in direction d, each from its smallest point, the
        # one whose coordinate lead is 0, in PG(3, p) id order
        for rest in itertools.product(range(p), repeat=2):
            r = [*rest[:lead], 0, *rest[lead:]]
            meets = []
            for (h0, *w), s in zip(planes, steps):
                lam = field.mul(s, field.add(h0, field.dot(w, r)))
                meets.append(tuple(field.add(a, field.mul(lam, b)) for a, b in zip(r, d)))
            lines.append(sorted(meets))
    # every slab point lies on one line of each direction
    slab = sorted(set(itertools.chain.from_iterable(lines)))
    slab_index = {x: i for i, x in enumerate(slab)}
    blocks = [[slab_index[x] for x in line] for line in lines]
    g = levi(IncidenceStructure([None] * len(slab), blocks))
    da, db = g.degree_sets()
    expect(g.degrees() == (n1, m1), f"slab degrees {sorted(da)}/{sorted(db)}")
    return g


def reference_affine_girth6_graph(field, m1: int, n1: int):
    """The AG(2, p) graph built through Field methods, one inverse per
    incidence, and the incidence graph of its lines: the reference for
    prune.affine_girth6_graph's closed-form rows."""
    from bbcage.graphs import expect, levi
    from bbcage.incidence import IncidenceStructure

    if field.k != 1:
        raise ValueError("affine construction needs a prime field")
    p = field.p
    if not 2 <= m1 <= p:
        raise ValueError(f"only {p} horizontal lines are affine, got m1={m1}")
    if not 2 <= n1 <= p:
        raise ValueError(f"only {p} non-horizontal directions exist, got n1={n1}")
    slopes: list[int | None] = list(range(1, p)) + [None]  # None is vertical
    chosen = slopes[:n1]

    def pid(x: int, y: int) -> int:
        return y * p + x

    blocks = []
    for s in chosen:
        if s is None:
            for c in range(p):
                blocks.append(tuple(pid(c, y) for y in range(m1)))
        else:
            for b in range(p):
                members = []
                for y in range(m1):
                    # x with s*x + b = y
                    x = field.mul(inverse(field, s), field.add(y, field.neg(b)))
                    members.append(pid(x, y))
                blocks.append(members)
    g = levi(IncidenceStructure([None] * m1 * p, blocks))
    da, db = g.degree_sets()
    expect(g.degrees() == (n1, m1), f"affine degrees {sorted(da)}/{sorted(db)}")
    return g
