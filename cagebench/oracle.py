"""Independent checks for the benchmark.

Nothing here imports ``bbcage``.  Graph files are decoded by readers of
their own, girth and diameter come from a bit-parallel breadth-first search
written with numpy, and every expected value (orders, degrees, girth, bounds,
hyperplane-section sizes) is a closed form from the paper or from the
classical geometry of the quadrics.

Every check raises ``CheckError`` with a one-line reason when it fails.
"""

from __future__ import annotations

from collections import Counter
import numpy as np

from closed import FAMILY_TABLE, bounds_fields, section_sizes


class CheckError(AssertionError):
    """An output of the program disagrees with an independent computation."""


def expect(cond: bool, what: str):
    if not cond:
        raise CheckError(what)


def expect_eq(got, want, what: str):
    if got != want:
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


# -- graph files --------------------------------------------------------------


def read_graph6(data: bytes) -> tuple[int, np.ndarray]:
    """Decode graph6 bytes into (n, edges) with edges an (E, 2) array of
    pairs i < j.  Strict: one graph, no header, exact body length."""
    s = data.strip()
    expect(len(s) > 0 and not s.startswith(b">>"), "graph6: empty or headed input")
    raw = np.frombuffer(s, dtype=np.uint8).astype(np.int64) - 63
    expect(bool(((raw >= 0) & (raw <= 63)).all()), "graph6: byte out of range")
    if raw[0] < 63:
        n, body = int(raw[0]), raw[1:]
    elif len(raw) >= 4 and raw[1] < 63:
        n = int((raw[1] << 12) | (raw[2] << 6) | raw[3])
        body = raw[4:]
    else:
        expect(len(raw) >= 8, "graph6: truncated size field")
        n = 0
        for v in raw[2:8]:
            n = (n << 6) | int(v)
        body = raw[8:]
    need = n * (n - 1) // 2
    expect_eq(len(body), -(-need // 6), "graph6 body length")
    bits = np.unpackbits(body.astype(np.uint8)[:, None], axis=1)[:, 2:].ravel()
    expect(not bits[need:].any(), "graph6: padding bits set")
    pos = np.flatnonzero(bits[:need])
    # bit p is the pair (i, j), i < j, with p = j (j - 1) / 2 + i
    j = ((1 + np.sqrt(1 + 8 * pos.astype(np.float64))) / 2).astype(np.int64)
    j -= j * (j - 1) // 2 > pos
    j += (j + 1) * j // 2 <= pos
    i = pos - j * (j - 1) // 2
    return n, np.stack([i, j], axis=1)


def read_dimacs(data: bytes) -> tuple[int, np.ndarray]:
    """Decode DIMACS edge format strictly: one ``p edge N M`` line, exactly M
    ``e`` lines with 1-based ids in range, no repeated edge."""
    n = declared = None
    pairs = []
    for ln in data.decode("ascii").splitlines():
        f = ln.split()
        if not f or f[0] == "c":
            continue
        if f[0] == "p":
            expect(n is None and len(f) == 4 and f[1] == "edge", f"dimacs: bad line {ln!r}")
            n, declared = int(f[2]), int(f[3])
            expect(n > 0 and declared >= 0, f"dimacs: bad sizes {ln!r}")
        else:
            expect(n is not None and f[0] == "e" and len(f) == 3, f"dimacs: bad line {ln!r}")
            a, b = int(f[1]) - 1, int(f[2]) - 1
            expect(0 <= a < n and 0 <= b < n and a != b, f"dimacs: bad edge {ln!r}")
            pairs.append((min(a, b), max(a, b)))
    expect(n is not None, "dimacs: no problem line")
    expect_eq(len(pairs), declared, "dimacs edge lines")
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return n, edges


def read_graph(data: bytes) -> tuple[int, np.ndarray]:
    head = data.lstrip()[:1]
    return read_dimacs(data) if head in (b"p", b"c") else read_graph6(data)


def edge_set(edges) -> set[tuple[int, int]]:
    return {(min(int(a), int(b)), max(int(a), int(b))) for a, b in edges}


# -- invariants by bit-parallel BFS -------------------------------------------


def two_colour(n: int, edges: np.ndarray) -> np.ndarray | None:
    """Colour per vertex (vertex 0 and every component's first vertex get 0),
    or None when an odd cycle exists."""
    adj = [[] for _ in range(n)]
    for a, b in edges.tolist():
        adj[a].append(b)
        adj[b].append(a)
    colour = [-1] * n
    for s in range(n):
        if colour[s] >= 0:
            continue
        colour[s] = 0
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if colour[y] < 0:
                    colour[y] = 1 - colour[x]
                    stack.append(y)
                elif colour[y] == colour[x]:
                    return None
    return np.array(colour, dtype=np.int8)


def girth_and_diameter(n: int, edges: np.ndarray) -> tuple[float, int | None]:
    """(girth, diameter) of a bipartite graph; diameter None if disconnected.

    One breadth-first search per vertex, all run at once: row v of the
    frontier holds, as a bitset over sources, the sources at the current
    distance from v.  In a bipartite graph the girth is 2k for the first
    level k at which some vertex is reached from two of its neighbours,
    because two distinct geodesics of length k close a cycle of length at
    most 2k, and the antipode of a shortest cycle's vertex is such a vertex.
    """
    words = -(-n // 64)
    deg = np.bincount(edges.ravel(), minlength=n)
    width = int(deg.max()) if n else 0
    nbr = np.full((n, width), n, dtype=np.int64)  # row n is all zero
    fill = np.zeros(n, dtype=np.int64)
    for a, b in edges.tolist():
        nbr[a, fill[a]] = b
        fill[a] += 1
        nbr[b, fill[b]] = a
        fill[b] += 1
    frontier = np.zeros((n + 1, words), dtype=np.uint64)
    ids = np.arange(n)
    frontier[ids, ids >> 6] = np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))
    seen = frontier[:n].copy()
    girth = float("inf")
    level = 0
    while True:
        one = np.zeros((n, words), dtype=np.uint64)
        two = np.zeros((n, words), dtype=np.uint64)
        for slot in range(width):
            x = frontier[nbr[:, slot]]
            two |= one & x
            one |= x
        new = one & ~seen
        if not new.any():
            break
        level += 1
        if girth == float("inf") and (two & new).any():
            girth = 2 * level
        seen |= new
        frontier[:n] = new
    full = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    if n % 64:
        full[-1] = np.uint64((1 << (n % 64)) - 1)
    connected = bool((seen == full).all())
    return girth, (level if connected else None)


def measure(n: int, edges: np.ndarray) -> dict:
    """Order, size, per-class (size, degree) multiset, girth and diameter."""
    expect(n > 0, "graph has no vertices")
    expect_eq(len(edge_set(edges)), len(edges), "distinct edges")
    colour = two_colour(n, edges)
    expect(colour is not None, "graph is not bipartite")
    deg = np.bincount(edges.ravel(), minlength=n)
    classes = []
    for c in (0, 1):
        d = Counter(deg[colour == c].tolist())
        classes.append(dict(sorted(d.items())))
    girth, diam = girth_and_diameter(n, edges)
    return {
        "vertices": n,
        "edges": len(edges),
        "classes": classes,
        "girth": girth,
        "diameter": diam,
    }


def check_graph(m: dict, exp: dict, what: str):
    """Compare a measure() result with a closed-form expectation."""
    expect_eq(m["classes"], exp["classes"], f"{what} class degrees")
    order = sum(sum(c.values()) for c in m["classes"])
    if "order" in exp:
        expect_eq(order, exp["order"], f"{what} order")
    expect_eq(m["girth"], exp["girth"], f"{what} girth")
    if "diameter" in exp:
        expect_eq(m["diameter"], exp["diameter"], f"{what} diameter")
    expect(m["diameter"] is not None, f"{what} is disconnected")


def check_report(report: dict, m: dict, exp: dict, what: str):
    """A construct/verify JSON report against the file's measurement and the
    closed forms."""
    expect_eq(report["vertices"], m["vertices"], f"{what} report vertices")
    expect_eq(report["edges"], m["edges"], f"{what} report edges")
    sizes = [sum(c.values()) for c in m["classes"]]
    expect_eq(report["class_sizes"], sizes, f"{what} report class sizes")
    expect_eq(report["degrees"], [sorted(c) for c in m["classes"]],
              f"{what} report degrees")
    expect_eq(report["girth"], exp["girth"], f"{what} report girth")
    expect_eq(report["diameter"], m["diameter"], f"{what} report diameter")
    expect_eq(report["connected"], True, f"{what} report connected")
    lo, hi = exp["mn"]
    for key, want in bounds_fields(lo, hi, exp["girth"], m["vertices"]).items():
        expect_eq(report.get(key), want, f"{what} report {key}")


def _gf_mul_table(q: int) -> np.ndarray:
    """GF(q) products for q prime or q = 4 (index c0 + 2 c1, mod x^2+x+1)."""
    a = np.arange(q)
    if q == 4:
        t = np.zeros((4, 4), dtype=np.int64)
        for x in range(4):
            for y in range(4):
                # carry-less product, then reduce x^2 = x + 1
                p = 0
                for i in range(2):
                    if y >> i & 1:
                        p ^= x << i
                if p & 4:
                    p ^= 0b111
                t[x, y] = p
        return t
    return np.outer(a, a) % q


def on_hyperplanes(hyperplanes: np.ndarray, points: np.ndarray, q: int) -> np.ndarray:
    """Boolean (H, P) matrix: point p lies on hyperplane h, by GF(q) dot
    products computed here, not by the program."""
    mul = _gf_mul_table(q)
    acc = np.zeros((len(hyperplanes), len(points)), dtype=np.int64)
    for i in range(points.shape[1]):
        prod = mul[hyperplanes[:, i][:, None], points[:, i][None, :]]
        acc = (acc ^ prod) if q == 4 else (acc + prod) % q
    return acc == 0


def check_sections(kind: str, q: int, points, blocks, hyperplanes, results):
    """Every (points on h, blocks inside h, tangent blocks) triple against the
    incidences computed here, and the size histogram against the closed form."""
    pts = np.array(points, dtype=np.int64)
    hyp = np.array(hyperplanes, dtype=np.int64)
    blk = np.array(blocks, dtype=np.int64)
    on = on_hyperplanes(hyp, pts, q)
    hist = Counter()
    for row, (p_in, b_in, b_tan) in zip(on, results):
        want = np.flatnonzero(row)
        expect(np.array_equal(np.asarray(p_in), want), f"{kind} section points")
        hits = row[blk].sum(axis=1)
        expect(bool(np.isin(hits, (1, blk.shape[1])).all()),
               f"{kind} a line meets a hyperplane in 2..q points")
        expect(np.array_equal(np.asarray(b_in), np.flatnonzero(hits == blk.shape[1])),
               f"{kind} blocks inside")
        expect(np.array_equal(np.asarray(b_tan), np.flatnonzero(hits == 1)),
               f"{kind} tangent blocks")
        hist[len(want)] += 1
    expect_eq(dict(hist), section_sizes(kind, q), f"{kind} section sizes")


def check_sts(v: int, blocks) -> None:
    """Every pair of points in exactly one block of three."""
    b = np.array(blocks, dtype=np.int64)
    expect_eq(b.shape, (v * (v - 1) // 6, 3), f"STS({v}) block array")
    pairs = np.concatenate([b[:, [0, 1]], b[:, [0, 2]], b[:, [1, 2]]])
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    cover = np.bincount(lo * v + hi, minlength=v * v).reshape(v, v)
    expect(bool((cover[np.triu_indices(v, 1)] == 1).all()), f"STS({v}) pair cover")


def check_family_table(q_values, rows):
    """Each row of the polygon family table against the prune order
    (st)^(r/2-1) (s+t+1) and the tree bound (s+t+1) sum_{i<r/2} ((s-1)t)^i
    of an (s, t+1; 2r) graph."""
    want = [(name, q) for q in q_values for name in FAMILY_TABLE]
    expect_eq([(r["family"], r["q"]) for r in rows], want, "family table rows")
    for row in rows:
        order, r = FAMILY_TABLE[row["family"]]
        s, t = order(row["q"])
        prune = (s * t) ** (r // 2 - 1)
        tree = sum(((s - 1) * t) ** i for i in range(r // 2))
        got = (row["degree_small"], row["degree_large"], row["girth"],
               row["prune_col"], row["moore_col"], row["excess"])
        expect_eq(got, (s + 1, t + 1, 2 * r, prune, tree, (s + t + 1) * (prune - tree)),
                  f"family table {row['family']} q={row['q']}")
        for col in ("prune_col", "moore_col", "excess"):
            published = row[f"{col}_published"]
            flagged = published is not None and published != row[col]
            expect_eq(row[f"{col}_mismatch"], flagged,
                      f"family table {row['family']} q={row['q']} {col} flag")
