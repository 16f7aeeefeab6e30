"""Bipartite graphs with exact girth/diameter machinery, distance-set
extraction, biregularity checks, and graph6/DIMACS export.

Vertex ids are global and deterministic: class A occupies 0..n_a-1 (points,
in construction order), class B occupies n_a..n_a+n_b-1 (blocks).
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass

from .incidence import IncidenceStructure

log = logging.getLogger(__name__)


class GraphError(ValueError):
    pass


class BipartiteGraph:
    def __init__(self, n_a: int, n_b: int, adj_a, meta=None):
        """adj_a[u] lists the B-side indices (0-based within B) adjacent to u."""
        if n_a < 0 or n_b < 0:
            raise GraphError("negative class size")
        self.n_a = n_a
        self.n_b = n_b
        cleaned = []
        for u, nbrs in enumerate(adj_a):
            t = sorted(nbrs)
            if any(not 0 <= b < n_b for b in t):
                raise GraphError(f"vertex {u} has an out-of-range neighbor")
            if len(set(t)) != len(t):
                raise GraphError(f"vertex {u} has a repeated edge")
            cleaned.append(tuple(t))
        if len(cleaned) != n_a:
            raise GraphError("adjacency length does not match class size")
        self.adj_a = tuple(cleaned)
        self.meta = dict(meta) if meta else {}
        self._adj = None
        self._girth = None
        self._diameter = None

    @classmethod
    def from_edges(cls, n_a: int, n_b: int, edges, meta=None) -> "BipartiteGraph":
        adj = [[] for _ in range(n_a)]
        for a, b in edges:
            adj[a].append(b)
        return cls(n_a, n_b, adj, meta)

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
        """Global adjacency lists, cached."""
        if self._adj is None:
            adj = [[] for _ in range(self.n_vertices)]
            for u, nbrs in enumerate(self.adj_a):
                for b in nbrs:
                    adj[u].append(self.n_a + b)
                    adj[self.n_a + b].append(u)
            for lst in adj:
                lst.sort()
            self._adj = adj
        return self._adj

    def degree_sets(self) -> tuple[set[int], set[int]]:
        adj = self.adjacency()
        da = {len(adj[v]) for v in range(self.n_a)}
        db = {len(adj[v]) for v in range(self.n_a, self.n_vertices)}
        return da, db

    def __repr__(self):
        return f"<BipartiteGraph {self.n_a}+{self.n_b} vertices, {self.num_edges} edges>"


def levi(structure: IncidenceStructure, meta=None) -> BipartiteGraph:
    """Incidence graph: class A = points, class B = blocks, edge iff incident."""
    if structure.num_points == 0 or structure.num_blocks == 0:
        raise GraphError("cannot build the incidence graph of an empty structure")
    m = dict(structure.tag)
    if meta:
        m.update(meta)
    return BipartiteGraph(
        structure.num_points,
        structure.num_blocks,
        structure.point_blocks,
        meta=m,
    )


def bfs_distances(adj: list[list[int]], src: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[src] = 0
    q = deque([src])
    while q:
        x = q.popleft()
        dx = dist[x]
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dx + 1
                q.append(y)
    return dist


def is_connected(g: BipartiteGraph) -> bool:
    if g.n_vertices == 0:
        return False
    return -1 not in bfs_distances(g.adjacency(), 0)


def girth(g: BipartiteGraph) -> int | float:
    """Exact girth via per-root BFS; math.inf for forests.

    Measured on the first call and stored on the graph; adj_a is a tuple, so
    the graph cannot change under the stored value.
    """
    if g._girth is None:
        g._girth = _girth_search(g)
    return g._girth


def _girth_search(g: BipartiteGraph) -> int | float:
    """Every cycle alternates classes, so roots in class A suffice; a BFS
    stops once its level can no longer beat the best cycle found."""
    adj = g.adjacency()
    n = len(adj)
    best = math.inf
    dist = [-1] * n
    parent = [-1] * n
    for root in range(g.n_a):
        for i in range(n):
            dist[i] = -1
        dist[root] = 0
        parent[root] = -1
        q = deque([root])
        while q:
            x = q.popleft()
            dx = dist[x]
            if 2 * dx >= best:
                break
            px = parent[x]
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dx + 1
                    parent[y] = x
                    q.append(y)
                elif y != px:
                    c = dx + dist[y] + 1
                    if c < best:
                        best = c
    return best


def diameter(g: BipartiteGraph) -> int:
    """Largest BFS eccentricity; raises GraphError on a disconnected graph.
    Measured on the first call and stored on the graph, like girth."""
    if g._diameter is None:
        adj = g.adjacency()
        diam = 0
        for v in range(len(adj)):
            dist = bfs_distances(adj, v)
            if -1 in dist:
                raise GraphError("diameter of a disconnected graph")
            diam = max(diam, max(dist))
        g._diameter = diam
    return g._diameter


def distance_sets(g: BipartiteGraph, u: int, v: int, i: int, j: int) -> list[int]:
    """Vertices at distance i from u and j from v (sorted global ids)."""
    n = g.n_vertices
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError("vertex out of range")
    if u == v:
        raise GraphError("distance sets need two distinct anchor vertices")
    adj = g.adjacency()
    du = bfs_distances(adj, u)
    dv = bfs_distances(adj, v)
    return [w for w in range(n) if du[w] == i and dv[w] == j]


@dataclass(frozen=True)
class BbReport:
    passed: bool
    m: int
    n: int
    girth_expected: int
    girth_actual: int | float
    degrees_a: tuple[int, ...]
    degrees_b: tuple[int, ...]
    violation: str | None


def bb_check(g: BipartiteGraph, m: int, n: int, girth_expected: int) -> BbReport:
    """Verify degrees {n} on one class and {m} on the other (either
    orientation) and girth exactly girth_expected; report the first violation."""
    da, db = g.degree_sets()
    gi = girth(g)
    violation = None
    ok_deg = (da == {m} and db == {n}) or (da == {n} and db == {m})
    if not ok_deg:
        violation = f"degree sets {sorted(da)}/{sorted(db)} are not {{{m}}}/{{{n}}}"
    elif gi != girth_expected:
        violation = f"girth {gi} != expected {girth_expected}"
    return BbReport(
        passed=violation is None,
        m=m,
        n=n,
        girth_expected=girth_expected,
        girth_actual=gi,
        degrees_a=tuple(sorted(da)),
        degrees_b=tuple(sorted(db)),
        violation=violation,
    )


def biregular_pair(g: BipartiteGraph) -> tuple[int, int]:
    """(m, n) with m <= n for a biregular graph; raises otherwise."""
    da, db = g.degree_sets()
    if len(da) != 1 or len(db) != 1:
        raise GraphError(f"not biregular: degree sets {sorted(da)}/{sorted(db)}")
    a, b = next(iter(da)), next(iter(db))
    return min(a, b), max(a, b)


def induced_subgraph(
    g: BipartiteGraph, keep, drop_isolated: bool = True, meta=None
) -> BipartiteGraph:
    """Induced subgraph on global vertex ids, re-indexed deterministically.

    Vertices isolated in the induced graph are dropped (with a logged count)
    when drop_isolated is set, since biregular contracts need positive degree.
    """
    keep = set(keep)
    adj = g.adjacency()
    if drop_isolated:
        live = {v for v in keep if any(w in keep for w in adj[v])}
        dropped = len(keep) - len(live)
        if dropped:
            log.info("induced_subgraph dropped %d isolated vertices", dropped)
        keep = live
    a_ids = sorted(v for v in keep if v < g.n_a)
    b_ids = sorted(v for v in keep if v >= g.n_a)
    b_index = {v: i for i, v in enumerate(b_ids)}
    new_adj = [
        [b_index[w] for w in adj[v] if w in keep]
        for v in a_ids
    ]
    m = dict(g.meta)
    if meta:
        m.update(meta)
    return BipartiteGraph(len(a_ids), len(b_ids), new_adj, meta=m)


# -- export / import ---------------------------------------------------------

_G6_MAX = 68719476735


def _g6_int_bytes(value: int, nbits: int) -> bytes:
    groups = []
    for shift in range(nbits - 6, -1, -6):
        groups.append(((value >> shift) & 0x3F) + 63)
    return bytes(groups)


def _g6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126]) + _g6_int_bytes(n, 18)
    if n <= _G6_MAX:
        return bytes([126, 126]) + _g6_int_bytes(n, 36)
    raise GraphError(f"graph6 cannot encode {n} vertices")


def to_graph6(g: BipartiteGraph) -> bytes:
    """Standard graph6 bytes; vertex order is construction order (A then B)."""
    n = g.n_vertices
    if n == 0:
        raise GraphError("cannot export an empty graph")
    nbr = [set() for _ in range(n)]
    for a, b in g.edges():
        nbr[a].add(b)
        nbr[b].add(a)
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if j in nbr[i] else 0)
    out = bytearray(_g6_size_bytes(n))
    for pos in range(0, len(bits), 6):
        group = bits[pos : pos + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        out.append(val + 63)
    out.extend(b"\n")
    return bytes(out)


def _ascii_text(data) -> str:
    """Graph file contents (bytes or str) as ASCII text, or GraphError."""
    text = data.decode("latin-1") if isinstance(data, bytes) else data
    if not text.isascii():
        pos = next(i for i, c in enumerate(text) if not c.isascii())
        raise GraphError(f"non-ASCII input at offset {pos}")
    return text


def from_graph6(data) -> tuple[int, list[tuple[int, int]]]:
    """Decode graph6 into (n, sorted edge list); accepts the optional header."""
    s = _ascii_text(data).strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :].strip()
    if not s:
        raise GraphError("empty graph6 input")
    raw = [ord(c) - 63 for c in s]
    if any(not 0 <= v <= 63 for v in raw):
        raise GraphError("invalid graph6 byte")
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
    body = raw[head:]
    need = n * (n - 1) // 2
    bits = []
    for v in body:
        for shift in range(5, -1, -1):
            bits.append((v >> shift) & 1)
    if len(bits) < need:
        raise GraphError("graph6 data truncated")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return n, edges


def to_dimacs(g: BipartiteGraph) -> bytes:
    """DIMACS edge format, 1-based vertex ids, A then B."""
    if g.n_vertices == 0:
        raise GraphError("cannot export an empty graph")
    lines = [f"p edge {g.n_vertices} {g.num_edges}"]
    for a, b in g.edges():
        lines.append(f"e {a + 1} {b + 1}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _dimacs_ints(ln: str, fields: list[str]) -> list[int]:
    """The fields of a DIMACS line as non-negative integers, or GraphError."""
    if not all(f.isdecimal() for f in fields):
        raise GraphError(f"bad DIMACS line: {ln!r}")
    return [int(f) for f in fields]


def from_dimacs(data) -> tuple[int, list[tuple[int, int]]]:
    n = problem = None
    edges = []
    for ln in _ascii_text(data).splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("c"):
            continue
        parts = ln.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphError(f"bad DIMACS problem line: {ln!r}")
            if problem is not None:
                raise GraphError(f"second DIMACS problem line: {ln!r}")
            problem = ln
            n, m = _dimacs_ints(ln, parts[2:])
        elif parts[0] == "e":
            if n is None:
                raise GraphError("DIMACS edge before problem line")
            if len(parts) != 3:
                raise GraphError(f"bad DIMACS line: {ln!r}")
            u, v = _dimacs_ints(ln, parts[1:])
            a, b = u - 1, v - 1
            if not (0 <= a < n and 0 <= b < n):
                raise GraphError(f"DIMACS edge out of range: {ln!r}")
            edges.append((min(a, b), max(a, b)))
        else:
            raise GraphError(f"unrecognized DIMACS line: {ln!r}")
    if n is None:
        raise GraphError("missing DIMACS problem line")
    if len(edges) != m:
        raise GraphError(
            f"DIMACS problem line {problem!r} declares {m} edges, found {len(edges)}"
        )
    return n, sorted(edges)


def bipartition(n: int, edges) -> tuple[list[int], list[int]] | None:
    """2-color a raw graph; returns (class0, class1) or None if an odd cycle
    exists.  Isolated vertices land in class0."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    color = [-1] * n
    for s in range(n):
        if color[s] >= 0:
            continue
        color[s] = 0
        q = deque([s])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if color[y] < 0:
                    color[y] = 1 - color[x]
                    q.append(y)
                elif color[y] == color[x]:
                    return None
    return (
        [v for v in range(n) if color[v] == 0],
        [v for v in range(n) if color[v] == 1],
    )


def graph_from_edges(n: int, edges) -> BipartiteGraph:
    """Wrap a raw bipartite edge list as a BipartiteGraph via 2-coloring."""
    parts = bipartition(n, edges)
    if parts is None:
        raise GraphError("input graph is not bipartite")
    class0, class1 = parts
    index0 = {v: i for i, v in enumerate(class0)}
    index1 = {v: i for i, v in enumerate(class1)}
    adj = [[] for _ in range(len(class0))]
    for a, b in edges:
        if a in index1:
            a, b = b, a
        adj[index0[a]].append(index1[b])
    return BipartiteGraph(len(class0), len(class1), adj)
