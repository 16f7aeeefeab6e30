"""Bipartite graphs with exact girth/diameter machinery, graph6/DIMACS
export, and the construction contract: expect aborts a construction with
ConstructionError, and expect_biregular checks a construction's order,
degrees and girth.

Vertex ids are global and deterministic: class A occupies 0..n_a-1 (points,
in construction order), class B occupies n_a..n_a+n_b-1 (blocks).

Girth and diameter share one level engine, _levels: roots in one class grow
a Python-int bitset per vertex, one class per level, each vertex ORing its
neighbours' frontiers.  It reads class-local rows, class A's adj_a and class
B's its transpose, so no search builds the global adjacency; only the prunes
do.  Until a vertex meets one root through two neighbours, the bits sent at
level L, deg(w) per frontier bit of w less one returning bit when L >= 2,
equal the new (root, vertex) pairs, so the first level with a surplus gives
girth 2L (Itai and Rodeh, 1978, counting for the collision test).  Every
other search, here and in prune, walks the one breadth-first search,
bfs_order.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from itertools import accumulate, chain, islice
from operator import mul

from .incidence import IncidenceStructure, point_stars


class GraphError(ValueError):
    pass


class ConstructionError(RuntimeError):
    """A construction violated its own mathematical contract."""


class BipartiteGraph:
    # The whole per-graph state: no further cache can be added unnoticed.
    __slots__ = ("n_a", "n_b", "adj_a", "meta", "_degree_sets", "_girth", "_diameter")

    def __init__(self, n_a: int, n_b: int, adj_a):
        """adj_a[u] lists the B-side indices (0-based within B) adjacent to u,
        ascending, in range and without repeats; rows are stored as given.
        Every builder of a graph makes its rows so."""
        if n_a < 0 or n_b < 0:
            raise GraphError("negative class size")
        self.n_a = n_a
        self.n_b = n_b
        self.adj_a = tuple(map(tuple, adj_a))
        if len(self.adj_a) != n_a:
            raise GraphError("adjacency length does not match class size")
        self.meta = {}  # free for callers: hyperplane_delete records its girth
        self._degree_sets = None
        self._girth = None
        self._diameter = None

    @property
    def n_vertices(self) -> int:
        return self.n_a + self.n_b

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj_a)

    def edges(self):
        """(a_global, b_global) pairs in deterministic order."""
        for u, nbrs in enumerate(self.adj_a):
            for b in nbrs:
                yield u, self.n_a + b

    def adjacency(self) -> list[list[int]]:
        """Global adjacency lists, ascending, built fresh on every call and
        not kept: class-A rows are adj_a shifted past class A, and class-B
        rows are their transpose, incidence.point_stars.  A caller that reads
        them repeatedly keeps the result."""
        n_a = self.n_a
        rows = [[n_a + b for b in nbrs] for nbrs in self.adj_a]
        return rows + list(map(list, point_stars(self.n_b, self.adj_a)))

    def degree_sets(self) -> tuple[frozenset[int], frozenset[int]]:
        """The degrees met in class A and in class B, measured on the first
        call and stored, like girth and diameter.  Both are read off adj_a:
        class-A degrees are row lengths, class-B degrees are counts of ids
        over the rows, and 0 is one when fewer than n_b ids occur."""
        if self._degree_sets is None:
            count = Counter(chain.from_iterable(self.adj_a))
            db = set(count.values())
            if len(count) < self.n_b:
                db.add(0)
            self._degree_sets = frozenset(map(len, self.adj_a)), frozenset(db)
        return self._degree_sets

    def degrees(self) -> tuple[int, int] | None:
        """(class-A degree, class-B degree) of a biregular graph, else None."""
        da, db = self.degree_sets()
        return (*da, *db) if len(da) == len(db) == 1 else None

    def __repr__(self):
        return f"<BipartiteGraph {self.n_a}+{self.n_b} vertices, {self.num_edges} edges>"


def levi(structure: IncidenceStructure) -> BipartiteGraph:
    """Incidence graph: class A = points, class B = blocks, edge iff incident.

    Built on the first call and stored on the structure, like girth on the
    graph: one structure is one graph, so its invariants are measured once.
    """
    if structure._levi is None:
        if structure.num_points == 0 or structure.num_blocks == 0:
            raise GraphError("cannot build the incidence graph of an empty structure")
        structure._levi = BipartiteGraph(
            structure.num_points, structure.num_blocks, structure.point_blocks
        )
    return structure._levi


def bfs_order(adj: list[list[int]], dist: list[int], src: int) -> list[int]:
    """Breadth-first search from src through the vertices whose dist is still
    negative: fills in their distances from src and returns them in visit order."""
    dist[src] = 0
    order = [src]
    for x in order:  # the list is the queue: it grows while it is read
        dx = dist[x] + 1
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dx
                order.append(y)
    return order


def girth(g: BipartiteGraph) -> int | float:
    """Exact girth, math.inf for forests: the level engine from the smaller
    class stops at its first surplus.  Stored on the graph by the first search
    (girth's or diameter's); adj_a is a tuple, so the graph cannot change."""
    if g._girth is None:
        _levels(g, _classes(g)[0], full=False)
    return g._girth


def diameter(g: BipartiteGraph) -> int | float:
    """Largest eccentricity, math.inf for a disconnected graph, so this one
    search also answers connectivity.  The engine runs from every vertex of
    the smaller class S, storing the girth too, and from the other class only
    if the largest eccentricity D_S over S is odd: two vertices there are an
    even distance apart, at most D_S + 1.  Stored on the graph like girth."""
    if g._diameter is None:
        small, large = _classes(g)
        diam = _levels(g, small, full=True)
        if diam % 2 == 1:  # math.inf % 2 is nan
            diam = max(diam, _levels(g, large, full=True))
        g._diameter = diam
    return g._diameter


def _classes(g: BipartiteGraph) -> tuple[range, range]:
    """The two classes' global ids, the smaller nonempty one first."""
    a, b = range(g.n_a), range(g.n_a, g.n_vertices)
    return (a, b) if g.n_b == 0 or 0 < g.n_a <= g.n_b else (b, a)


# The engine searches a chunk of roots at a time: as many as fit ROOT_BITS
# bits over the n bitsets of one chunk, and at least one.  So a graph of up to
# 23,170 vertices is one chunk.  The two per-class unseen lists hold those n
# bitsets, and the frontier and the next level one class each, so the engine
# holds at most 2 * ROOT_BITS bits, plus the transpose of adj_a.
ROOT_BITS = 2**29


def _levels(g: BipartiteGraph, roots, full: bool) -> int | float:
    """The level engine from roots (global ids) in one class, on class-local
    rows: class A's as adj_a stores them, class B's their transpose, built
    here and dropped on return; every list is one class's, indexed within it.
    It looks for cycles only if g stores no girth.  A full pass runs every
    chunk to exhaustion and returns the largest eccentricity of its roots,
    math.inf if one misses a vertex; otherwise roots of degree < 2 are
    dropped, and a chunk stops at the best level."""
    stars = point_stars(g.n_b, g.adj_a)
    in_b = bool(roots) and roots[0] >= g.n_a
    rows = (stars, g.adj_a) if in_b else (g.adj_a, stars)  # roots' class first
    todo = (v - g.n_a if in_b else v for v in roots)
    if not full:
        todo = (v for v in todo if len(rows[0][v]) >= 2)
    back = [[len(nbrs) - 1 for nbrs in side] for side in rows]  # bits sent on, less the return
    best = math.inf if g._girth is None else 0  # shortest cycle so far
    ecc = 0
    chunk = max(1, ROOT_BITS // max(g.n_vertices, 1))
    while part := list(islice(todo, chunk)):
        unseen = [[(1 << len(part)) - 1] * len(side) for side in rows]
        frontier = [0] * len(rows[0])
        for i, root in enumerate(part):
            frontier[root] = 1 << i
            unseen[0][root] ^= 1 << i
        sent = sum(len(rows[0][root]) for root in part)
        level = 1
        while full or 2 * level < best:
            side = level % 2  # odd levels: the other class
            left = unseen[side]
            nxt = [0] * len(left)
            for v, nbrs in enumerate(rows[side]):
                once = 0
                for w in nbrs:
                    once |= frontier[w]
                new = once & left[v]
                if new:
                    nxt[v] = new
                    left[v] ^= new
            if not any(nxt):
                break
            if 2 * level < best:
                counts = list(map(int.bit_count, nxt))
                if sum(counts) < sent:
                    best = 2 * level
                sent = sum(map(mul, back[side], counts))
            frontier = nxt
            level += 1
        if full and any(map(any, unseen)):  # later chunks only look for cycles
            ecc, full = math.inf, False
            todo = (v for v in todo if len(rows[0][v]) >= 2)
        elif full:
            ecc = max(ecc, level - 1)
    if g._girth is None:
        g._girth = best
    return ecc


def expect(cond: bool, what: str):
    """The one place a construction reports a violated invariant."""
    if not cond:
        raise ConstructionError(f"violated invariant: {what}")


def expect_biregular(
    g: BipartiteGraph, m: int, n: int, girth_expected: int, order: int, what: str
) -> BipartiteGraph:
    """The contract of a construction: order vertices, degrees {m} on one
    class and {n} on the other (either orientation), and girth exactly
    girth_expected, checked in that order; the first violation aborts."""
    expect(g.n_vertices == order, f"{what} order {g.n_vertices} != {order}")
    da, db = g.degree_sets()
    expect(
        g.degrees() in ((m, n), (n, m)),
        f"{what}: degree sets {sorted(da)}/{sorted(db)} are not {{{m}}}/{{{n}}}",
    )
    gi = girth(g)
    expect(gi == girth_expected, f"{what}: girth {gi} != expected {girth_expected}")
    return g


def biregular_pair(g: BipartiteGraph) -> tuple[int, int]:
    """(m, n) with m <= n for a biregular graph; raises otherwise."""
    pair = g.degrees()
    if pair is None:
        da, db = g.degree_sets()
        raise GraphError(f"not biregular: degree sets {sorted(da)}/{sorted(db)}")
    return min(pair), max(pair)


def induced_subgraph(g: BipartiteGraph, keep) -> BipartiteGraph:
    """Induced subgraph on exactly the given global vertex ids, re-indexed
    in increasing id order within each class.  Rows are read from adj_a, so
    the host's global adjacency is not built."""
    keep = set(keep)
    if keep and not (0 <= min(keep) and max(keep) < g.n_vertices):
        raise GraphError("vertex out of range")
    n_a = g.n_a
    a_ids = sorted(v for v in keep if v < n_a)
    b_index = {v - n_a: i for i, v in enumerate(sorted(v for v in keep if v >= n_a))}
    new_adj = [[b_index[b] for b in g.adj_a[v] if b in b_index] for v in a_ids]
    return BipartiteGraph(len(a_ids), len(b_index), new_adj)


# -- export / import ---------------------------------------------------------

_G6_MAX = 68719476735


def _g6_size_bytes(n: int) -> bytes:
    """N(n): one byte n + 63 up to 62, else "~" and 18 bits or "~~" and 36
    bits, six bits per byte, high bits first, each byte offset by 63."""
    for head, nbits, top in ((b"", 6, 62), (b"~", 18, 258047), (b"~~", 36, _G6_MAX)):
        if n <= top:
            return head + bytes((n >> s & 63) + 63 for s in range(nbits - 6, -1, -6))
    raise GraphError(f"graph6 cannot encode {n} vertices")


def to_graph6(g: BipartiteGraph) -> bytes:
    """Standard graph6 bytes; vertex order is construction order (A then B)."""
    n = g.n_vertices
    if n == 0:
        raise GraphError("cannot export an empty graph")
    # Bit p = j(j-1)/2 + i of the upper triangle, column by column, is edge
    # (i, j); six bits per byte, high bit first, each byte offset by 63 ("?").
    # Each edge is listed once, so adding its bit sets it.
    body = bytearray(b"?") * -(-n * (n - 1) // 12)
    for a, b in g.edges():
        p = b * (b - 1) // 2 + a
        body[p // 6] += 32 >> p % 6
    return b"".join((_g6_size_bytes(n), body, b"\n"))


# Translation tables between graph6 characters and their 6-bit values.
_G6_VALID = bytes(range(63, 127))
_G6_VALUES = bytes(63) + bytes(range(64)) + bytes(129)
# The offsets, high bit first, of the set bits of each 6-bit value.
_G6_BITS = [[t for t in range(6) if v & 32 >> t] for v in range(64)]
_G6_NONZERO = re.compile(rb"[^\x00]")


def _ascii_text(data) -> str:
    """Graph file contents (bytes or str) as ASCII text, or GraphError."""
    text = data.decode("latin-1") if isinstance(data, bytes) else data
    if not text.isascii():
        pos = next(i for i, c in enumerate(text) if not c.isascii())
        raise GraphError(f"non-ASCII input at offset {pos}")
    return text


def from_graph6(data) -> tuple[int, list[tuple[int, int]]]:
    """Decode graph6 into (n, edges); accepts the optional header.  Edges are
    (i, j) pairs with i < j in graph6 bit order: by j, then by i."""
    s = _ascii_text(data).strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :].strip()
    if not s:
        raise GraphError("empty graph6 input")
    raw = s.encode("ascii")
    if raw.translate(None, _G6_VALID):
        raise GraphError("invalid graph6 byte")
    raw = raw.translate(_G6_VALUES)
    if raw[0] != 63:
        n, head = raw[0], 1
    else:
        # "~" and 3 bytes of 6 bits, or "~~" and 6 bytes
        start, head = (1, 4) if len(raw) > 1 and raw[1] != 63 else (2, 8)
        if len(raw) < head:
            raise GraphError("graph6 size prefix truncated")
        n = 0
        for v in raw[start:head]:
            n = (n << 6) | v
    need = n * (n - 1) // 2
    if 6 * (len(raw) - head) < need:
        raise GraphError("graph6 data truncated")
    body = raw[head : head + -(-need // 6)]
    edges = []
    # Bit p of the body is edge (p - base, j) for base = j(j-1)/2 <= p <
    # base + j.  Only the nonzero bytes hold edges; bits past need are padding.
    j, base = 1, 0
    for byte in _G6_NONZERO.finditer(body):
        k = 6 * byte.start()
        for t in _G6_BITS[byte[0][0]]:
            p = k + t
            while p >= base + j:
                base += j
                j += 1
            if j < n:
                edges.append((p - base, j))
    return n, edges


def to_dimacs(g: BipartiteGraph) -> bytes:
    """DIMACS edge format, 1-based vertex ids, A then B."""
    if g.n_vertices == 0:
        raise GraphError("cannot export an empty graph")
    ids = list(map(str, range(1, g.n_vertices + 1)))  # each formatted once
    b_ids = ids[g.n_a :]
    lines = [f"p edge {g.n_vertices} {g.num_edges}"]
    for u, nbrs in enumerate(g.adj_a):
        head = "e " + ids[u] + " "
        lines.extend([head + b_ids[b] for b in nbrs])
    return ("\n".join(lines) + "\n").encode("ascii")


def from_dimacs(data) -> tuple[int, list[tuple[int, int]]]:
    n = problem = None
    edges = []
    try:
        for ln in _ascii_text(data).splitlines():
            parts = ln.split()
            if not parts or parts[0] == "c":
                continue
            if parts[0] == "e":
                if n is None:
                    raise GraphError("DIMACS edge before problem line")
                if len(parts) != 3 or not (parts[1].isdecimal() and parts[2].isdecimal()):
                    raise GraphError(f"bad DIMACS line: {ln.strip()!r}")
                a, b = int(parts[1]) - 1, int(parts[2]) - 1
                if not (0 <= a < n and 0 <= b < n):
                    raise GraphError(f"DIMACS edge out of range: {ln.strip()!r}")
                edges.append((a, b) if a < b else (b, a))
            elif parts[0] == "p":
                if len(parts) != 4 or parts[1] != "edge":
                    raise GraphError(f"bad DIMACS problem line: {ln.strip()!r}")
                if problem is not None:
                    raise GraphError(f"second DIMACS problem line: {ln.strip()!r}")
                if not (parts[2].isdecimal() and parts[3].isdecimal()):
                    raise GraphError(f"bad DIMACS line: {ln.strip()!r}")
                problem = ln.strip()
                n, m = int(parts[2]), int(parts[3])
            else:
                raise GraphError(f"unrecognized DIMACS line: {ln.strip()!r}")
    except GraphError:
        raise
    except ValueError:  # a number past int()'s digit limit
        raise GraphError(f"DIMACS number too long: {ln.strip()[:40]!r}") from None
    if n is None:
        raise GraphError("missing DIMACS problem line")
    if len(edges) != m:
        raise GraphError(
            f"DIMACS problem line {problem!r} declares {m} edges, found {len(edges)}"
        )
    return n, sorted(edges)


def graph_from_edges(n: int, edges) -> BipartiteGraph:
    """Wrap a raw bipartite edge list as a BipartiteGraph by a 2-colouring, the
    parity of distance from each component's smallest vertex (class A) on one
    shared dist; each class keeps increasing vertex order.  An odd cycle, a
    self-loop or a repeated edge raises GraphError."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = [-1] * n
    for s in range(n):
        if dist[s] < 0:
            bfs_order(adj, dist, s)
    colour = [d & 1 for d in dist]
    rows = [nbrs for nbrs, c in zip(adj, colour) if not c]
    m = sum(map(len, adj)) // 2  # bipartite iff class A's rows reach B m times
    if sum(map(colour.__getitem__, chain.from_iterable(rows))) != m:
        raise GraphError("input graph is not bipartite")
    b_index = list(accumulate(colour, initial=0))  # class B ids before each vertex
    adj_a = [sorted(map(b_index.__getitem__, nbrs)) for nbrs in rows]
    if sum(map(len, map(set, adj_a))) != m:
        u = next(u for u, row in enumerate(adj_a) if len(set(row)) < len(row))
        raise GraphError(f"vertex {u} has a repeated edge")
    return BipartiteGraph(len(rows), n - len(rows), adj_a)
