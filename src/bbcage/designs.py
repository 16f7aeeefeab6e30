"""Steiner systems: triple-system generation (Bose / Skolem), validation,
point truncation to girth-6 biregular cages, and a line-oriented file format.

File format: first line "v b k" (ASCII decimals), then b lines of k
space-separated 0-based point indices, each line ascending, LF-terminated.
Lines end at LF only and fields are separated by the ASCII space only: a CR,
a tab or a non-ASCII space (such as a no-break space or the \x1c-\x1f
separators) makes the file malformed.  Lines of spaces only are skipped.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain, combinations, islice

from .bounds import girth6_bound
from .graphs import BipartiteGraph, expect, expect_biregular
from .incidence import point_stars


class DesignError(ValueError):
    pass


class Design(namedtuple("Design", "v blocks")):
    """A design on the points 0..v-1 and its blocks, tuples of point indices."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0

    @property
    def b(self) -> int:
        return len(self.blocks)


class DesignReport(
    namedtuple(
        "DesignReport",
        "valid uniform_block_size pair_coverage uniform_replication problems",
    )
):
    """design_validate's verdict, each check on its own, and the problems found."""

    __slots__ = ()


def _half_label(n2: int):
    """Permutation of Z_{2n} relabeling the cyclic addition table so the
    diagonal reads 0..n-1, 0..n-1 (half-idempotent commutative quasigroup):
    2h goes to h and 2h + 1 to n + h."""
    return [i // 2 + i % 2 * (n2 // 2) for i in range(n2)]


# The validated STS(v) of this process, by v, least recently returned by
# sts_generate first: at most STS_CACHE_BLOCKS blocks in all, about one STS at
# the order cap (v = 1249: 259,792 blocks, 17.9 MiB by tracemalloc on CPython 3.11.7).
STS_CACHE_BLOCKS = 2 ** 18
_sts_cache: dict[int, Design] = {}


def sts_generate(v: int) -> Design:
    """The Steiner triple system on v points, v = 1 or 3 (mod 6), v >= 7.

    Bose construction for v = 3 (mod 6), Skolem for v = 1 (mod 6); the output
    passes design_validate.  It is the process's one validated, immutable
    STS(v): a repeat call returns the same object unchecked.  The designs
    kept hold at most STS_CACHE_BLOCKS blocks, the least recently returned
    dropped first; a larger design is returned but not kept.
    """
    if not isinstance(v, int) or v < 7 or v % 6 not in (1, 3):
        raise DesignError(f"no Steiner triple system on {v} points")
    design = _sts_cache.pop(v, None)
    if design is not None:
        _sts_cache[v] = design  # now the most recently returned
        return design

    ids = list(range(v))  # one int object per point, shared by its blocks

    def pt(i, c):
        return ids[3 * i + c]

    # Both quasigroups on Z_g are functions of i + j: i o j = circ[i + j].
    g = v // 3
    blocks = []
    if v % 6 == 3:  # Bose, g = 2n + 1: i o j = (i + j) / 2, and n + 1 halves mod g
        circ = [k * (g + 1) // 2 % g for k in range(2 * g)]
        diagonal = g
    else:  # Skolem, g = 2n: the half-idempotent quasigroup and a point at infinity
        circ = _half_label(g) * 2
        diagonal = n = g // 2
        for i in range(n):
            for c in range(3):
                blocks.append(tuple(sorted((ids[-1], pt(n + i, c), pt(i, (c + 1) % 3)))))
    for i in range(diagonal):
        blocks.append((pt(i, 0), pt(i, 1), pt(i, 2)))
    for i in range(g):
        for j in range(i + 1, g):
            h = circ[i + j]
            for c in range(3):
                blocks.append(tuple(sorted((pt(i, c), pt(j, c), pt(h, (c + 1) % 3)))))
    design = Design(v, tuple(sorted(blocks)))
    report = design_validate(design)
    expect(report.valid, f"generated triple system is invalid: {report.problems}")
    if design.b <= STS_CACHE_BLOCKS:
        held = design.b + sum(d.b for d in _sts_cache.values())
        while held > STS_CACHE_BLOCKS:  # drop the least recently returned
            held -= _sts_cache.pop(next(iter(_sts_cache))).b
        _sts_cache[v] = design
    return design


def design_validate(design: Design) -> DesignReport:
    """Check uniform block size, every point pair covered exactly once, and
    uniform replication; violations are reported, not raised.  A pair counts
    whatever the order of its block, and a point outside 0..v-1 is a problem
    of its own, left out of the pair and replication counts."""
    problems = []
    sizes = {len(b) for b in design.blocks}
    uniform = len(sizes) == 1
    if not uniform:
        problems.append(f"block sizes {sorted(sizes)} are not uniform")
    points = range(design.v)
    outside = sorted(x for x in set().union(*design.blocks) if x not in points)
    if outside:
        problems.append(f"points outside 0..{design.v - 1}: {outside[:10]}")
    blocks = [sorted(x for x in blk if x in points) if outside else sorted(blk)
              for blk in design.blocks]
    pair_count = Counter(chain.from_iterable(combinations(blk, 2) for blk in blocks))
    count = Counter(chain.from_iterable(blocks))
    multi = sorted(k for k, c in pair_count.items() if c > 1)
    # the keys are in-range pairs x <= y, and x = y only for a repeated point:
    # with C(v, 2) keys x < y every pair is covered, so none are walked; else
    # the walk ends at the tenth uncovered pair, past no more than every key
    covered = len(pair_count) - sum((x, x) in pair_count for x in count)
    uncovered = [] if covered == design.v * (design.v - 1) // 2 else list(
        islice((p for p in combinations(points, 2) if p not in pair_count), 10))
    pair_ok = not multi and not uncovered
    if multi:
        problems.append(f"pairs covered more than once: {multi[:10]}")
    if uncovered:
        problems.append(f"uncovered pairs: {uncovered}")
    reps = set(count.values())
    if len(count) < design.v:  # a point on no block
        reps.add(0)
    rep_ok = len(reps) == 1
    if not rep_ok:
        problems.append(f"replication numbers {sorted(reps)} are not uniform")
    return DesignReport(
        valid=uniform and pair_ok and rep_ok and not outside,
        uniform_block_size=uniform,
        pair_coverage=pair_ok,
        uniform_replication=rep_ok,
        problems=problems,
    )


def truncation_degrees(v: int, k: int) -> tuple[int, int]:
    """The degrees (m, n) of the truncation of a 2-(v, k, 1) design: m = k
    and n = (v-1)/(k-1) - 1, which must satisfy 3 <= m <= n and
    n = -1 (mod m).  Needs only v and k, so callers check before building."""
    m = k
    if m < 3:
        raise DesignError("block size must be at least 3")
    if (v - 1) % (m - 1):
        raise DesignError(f"replication (v-1)/(k-1) is not integral for v={v}")
    n = (v - 1) // (m - 1) - 1
    if m > n:
        raise DesignError(f"needs block size <= truncated degree, got m={m} > n={n}")
    if (n + 1) % m:
        raise DesignError(f"needs n = -1 (mod m): n={n}, m={m}")
    return m, n


def steiner_truncate(design: Design, point: int = 0) -> BipartiteGraph:
    """Delete one point and every block through it: the other points and the
    blocks that miss it, each in order, form an (m, n; 6) biregular graph of
    order (n/m + 1)(n+1)(m-1), where m is the block size, n is the
    replication less one (truncation_degrees) and b = v(v-1)/(k(k-1)).  Its
    rows are written from the blocks once all are in range and then all free
    of repeats; a refusal names the first bad block's index in design.blocks.
    """
    if not isinstance(point, int):
        raise DesignError(f"point {point!r} is not an int")
    if not 0 <= point < design.v:
        raise DesignError(f"point {point} out of range")
    m, n = truncation_degrees(design.v, design.k)
    b = design.v * (design.v - 1) // (m * (m - 1))  # an integer once n + 1 = 0 (mod m)
    if design.b != b:
        raise DesignError(f"a 2-({design.v}, {m}, 1) design has {b} blocks, got {design.b}")
    for bi, blk in enumerate(design.blocks):
        for x in blk:
            if not 0 <= x < design.v:
                raise DesignError(f"block {bi} has out-of-range point index {x}")
    for bi, blk in enumerate(design.blocks):
        if len(set(blk)) < len(blk):
            raise DesignError(f"block {bi} repeats a point")
    kept = [blk for blk in design.blocks if point not in blk]
    rows = point_stars(design.v, kept)
    g = BipartiteGraph(design.v - 1, len(kept), rows[:point] + rows[point + 1:])
    return expect_biregular(g, m, n, 6, girth6_bound(m, n), "truncation")


def design_save(design: Design) -> str:
    lines = [f"{design.v} {design.b} {design.k}", *(" ".join(map(str, b)) for b in design.blocks)]
    return "\n".join(lines) + "\n"


def design_load(text: str) -> Design:
    """Parse the design file format; syntactic checks only (run
    design_validate for the combinatorial ones)."""
    if not text:
        raise DesignError("empty design file")
    lines = text.split("\n")
    head = _fields(lines[0])
    if len(head) != 3:
        raise DesignError(f"malformed header {lines[0]!r}, expected 'v b k'")
    v, b, k = _decimals(head, lines[0], "header")
    body = [ln for ln in lines[1:] if _fields(ln)]
    if len(body) != b:
        raise DesignError(f"expected {b} blocks, found {len(body)}")
    blocks = []
    for ln in body:
        ids = tuple(sorted(_decimals(_fields(ln), ln, "block line")))
        if len(ids) != k:
            raise DesignError(f"block {ln!r} does not have {k} entries")
        if len(set(ids)) != k:
            raise DesignError(f"block {ln!r} repeats a point")
        if any(x >= v for x in ids):
            raise DesignError(f"block {ln!r} has an index out of range")
        blocks.append(ids)
    return Design(v, tuple(blocks))


def _fields(line: str) -> list[str]:
    """The runs of one line between ASCII spaces; any other whitespace stays
    inside a field, where _decimals rejects it."""
    return [f for f in line.split(" ") if f]


def _decimals(fields: list[str], line: str, what: str) -> list[int]:
    """The fields of one line as ints; each must be ASCII digits only, so a
    sign, an underscore or a non-ASCII digit is malformed."""
    if not all(f.isascii() and f.isdecimal() for f in fields):
        raise DesignError(
            f"malformed {what} {line!r}: fields are non-negative ASCII decimals"
        )
    try:
        return [int(f) for f in fields]
    except ValueError as exc:  # past int()'s digit limit
        raise DesignError(f"malformed {what} {line!r}") from exc
