"""Projective geometry over GF(q): the points and hyperplanes of PG(d, q),
quadric points and their polar perps, the lines of a generalized polygon
read off its perps, and hyperplane sections.

pg_points is the one list of PG(d, q): normalized representatives (first
nonzero coordinate 1) in lexicographic coordinate order, a point's id its
position, so every downstream structure is bit-reproducible.

perp_lines reads the lines of a generalized polygon off its perps, the
masks of the points collinear with each point, with no walk: polar_perps
gives it the perps of Q(4,q) and Q(5,q), and the split Cayley hexagon the
kernels of its octonion product (polygons.quadric_structure).

Sections and perps find a hyperplane's points by meet in the middle over
memoized half dot products (_scan).  A section scans its blocks the same
way, through an index whose positions are the blocks' points (_block_index),
and counts each block's points on the hyperplane bit-parallel.  There is one
section cache: the indexes of a structure's own tuples of tuples are built
once and found by identity (_indexed); other inputs are indexed on every
call.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from functools import lru_cache

from .gf import Field


class GeometryError(ValueError):
    """Inconsistent geometric input (bad dimension, degenerate section, ...)."""


class ProjectivePoint(namedtuple("ProjectivePoint", "id coords")):
    """A point's id in its PG(d, q) list and its normalized coordinates."""

    __slots__ = ()


class Hyperplane(namedtuple("Hyperplane", "coeffs")):
    """Coefficient vector; a point lies on it iff the dot product vanishes."""

    __slots__ = ()


class QuadraticForm(namedtuple("QuadraticForm", "dim matrix tag")):
    """Upper-triangular coefficient matrix of a homogeneous quadratic form."""

    __slots__ = ()


@lru_cache(maxsize=None)
def pg_points(d: int, field: Field) -> tuple[ProjectivePoint, ...]:
    """All points of PG(d, q), 2 <= d <= 6, built once per (d, field): the
    package's one list of them."""
    if not 2 <= d <= 6:
        raise GeometryError(f"supported dimensions are 2..6, got {d}")
    coords = (
        (0,) * lead + (1,) + tail
        for lead in range(d, -1, -1)
        for tail in itertools.product(range(field.q), repeat=d - lead)
    )
    return tuple(itertools.starmap(ProjectivePoint, enumerate(coords)))


def _blank(d: int) -> list[list[int]]:
    return [[0] * (d + 1) for _ in range(d + 1)]


def parabolic_form(d: int, field: Field) -> QuadraticForm:
    """X0^2 + X1X2 + X3X4 (+ X5X6) in PG(4, q) or PG(6, q)."""
    if d not in (4, 6):
        raise GeometryError(f"parabolic form defined for d in {{4, 6}}, got {d}")
    m = _blank(d)
    m[0][0] = 1
    for i in range(1, d, 2):
        m[i][i + 1] = 1
    return QuadraticForm(d, tuple(tuple(r) for r in m), f"parabolic-{d}")


def elliptic_form(field: Field) -> QuadraticForm:
    """X0X1 + X2X3 + g(X4, X5) with g the smallest irreducible binary quadratic."""
    b, c = _smallest_anisotropic_pair(field)
    m = _blank(5)
    m[0][1] = 1
    m[2][3] = 1
    m[4][4] = 1
    m[4][5] = b
    m[5][5] = c
    return QuadraticForm(5, tuple(tuple(r) for r in m), "elliptic-5")


def _smallest_anisotropic_pair(field: Field) -> tuple[int, int]:
    # first (b, c) with t^2 + b*t + c having no root, so x^2 + bxy + cy^2
    # vanishes only at (0, 0); in characteristic 2 every t^2 + c is a square,
    # (t + c^(q/2))^2, so the search starts at b = 1
    for b in range(field.p == 2, field.q):
        for c in range(field.q):
            if all(
                field.add(field.add(field.mul(t, t), field.mul(b, t)), c) != 0
                for t in range(field.q)
            ):
                return b, c
    raise GeometryError(f"no irreducible binary quadratic over {field}")


def quadric_points(form: QuadraticForm, field: Field) -> list[ProjectivePoint]:
    """All projective points with Q(x) = 0, keeping their PG(d, q) ids.

    Q(x) = sum over i <= j of m_ij x_i x_j for the upper-triangular M,
    summed over the nonzero m_ij only (at most 5 in each form here), which
    are read off the matrix once per call."""
    add, mul = field.add, field.mul
    terms = [(i, j, m) for i, row in enumerate(form.matrix) for j, m in enumerate(row) if m]
    out = []
    for p in pg_points(form.dim, field):
        x, acc = p.coords, 0
        for i, j, m in terms:
            acc = add(acc, mul(m, mul(x[i], x[j])))
        if acc == 0:
            out.append(p)
    return out


def polar_perps(form: QuadraticForm, point_coords, field: Field) -> list[int]:
    """The perps of the quadric Q(4,q) or Q(5,q) whose points, all of them,
    are point_coords: for each point, the mask of the points collinear with
    it, itself included.

    For a and b on Q, Q(a + lam * b) = lam * B(a, b) with B the polar form,
    so line ab lies on Q exactly when b is on the polar hyperplane
    (M + M^T) a: one mask scan per point.  The polar matrix is summed once
    per call.  A quadric of PG(6, q) is refused: it contains planes, so the
    points collinear with two collinear points are more than their line.
    """
    if form.dim >= 6:
        raise GeometryError(
            f"the {form.tag} quadric contains planes: its lines are not ANDs of perps"
        )
    rows, dot = form.matrix, field.dot
    polar = [tuple(map(field.add, r, c)) for r, c in zip(rows, zip(*rows))]
    return perp_masks(point_coords, field, lambda x: ([dot(r, x) for r in polar],))


def perp_masks(point_coords, field: Field, rows_of, size: int = 0) -> list[int]:
    """For each point x of point_coords, the mask of the points y with
    R . y = 0 for every row R of rows_of(x).

    Each row is one scan of the point list's hyperplane index (_scan), kept
    to the points the previous rows left.  The rows of x stop at the first
    mask of size points: the caller passes a size only when the solutions
    are known to number that many, and the mask always holds them all.
    """
    index = _indexed(_mask_index, point_coords, field)
    out = []
    for x in point_coords:
        found = index[1]
        for row in rows_of(x):
            found = _scan(index, found, row)
            if found.bit_count() == size:
                break
        out.append(found)
    return out


def perp_lines(perps) -> list[tuple[int, ...]]:
    """The lines of a generalized polygon, as sorted tuples of point indices
    in sorted order, from its perps: perps[i] is the mask of the points
    collinear with point i, itself included.

    A generalized polygon has no triangles, so the points collinear with
    two collinear points i and j are exactly the points of line ij:
    perps[i] & perps[j].  At point i the partners j > i are taken in order,
    each dropping the rest of its line, and a line is kept at its smallest
    point; so the lines come out sorted.
    """
    lines = []
    for i, perp in enumerate(perps):
        rest = perp >> (i + 1) << (i + 1)
        while rest:
            line = perp & perps[(rest & -rest).bit_length() - 1]
            rest &= ~line
            if line & -line == 1 << i:
                lines.append(tuple(_bits(line)))
    return lines


def _mask_index(point_coords, field: Field):
    """The hyperplane index of a point list: its coordinate masks (bit j of
    masks[i][v] set when point j has coordinate i equal to v, each row
    built when first read, see _Rows), the mask of all its points, their
    ids, the split c = (d+1)//2, a memo per half (see _scan) and the field.
    Its positions are the points, point j at bit j (_position_index)."""
    n = len(point_coords)
    return _position_index(point_coords, range(n - 1, -1, -1), tuple(range(n)), field)


def _block_index(point_coords, blocks, field: Field):
    """The hyperplane index of the blocks' points, and the shifts j*b of its
    block positions j: bit j*b + i of its masks is the j-th point of block
    i, so one _scan gives, for each j, the b-bit mask of the blocks whose
    j-th point is on the hyperplane.  A block naming a point index outside
    0..len(point_coords)-1 is refused, the first such block named."""
    b = len(blocks)
    # the point at each position, highest first; _EMPTY past a block's end
    at = list(itertools.chain.from_iterable(itertools.zip_longest(*blocks, fillvalue=_EMPTY)))
    at.reverse()
    try:
        index = _position_index(point_coords, at, tuple(range(b)), field)
    except KeyError:
        for bi, blk in enumerate(blocks):
            for x in blk:
                if not 0 <= x < len(point_coords):
                    raise GeometryError(f"block {bi} has out-of-range point index {x}") from None
        raise
    return index, range(0, len(at), b or 1)


# The point of an empty position, past the end of a shorter block
_EMPTY = object()
# _PLANE[t] translates each byte to the digit 0 or 1, its bit t
_PLANE = [(b"0" * (1 << t) + b"1" * (1 << t)) * (128 >> t) for t in range(8)]


class _Rows(dict):
    """An index's coordinate masks: rows[i][v] is the mask of the positions
    whose coordinate i is v, each row built by build(i) when a scan first
    reads it, so a hyperplane with few nonzero coefficients builds few."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, i):
        row = self[i] = self.build(i)
        return row


def _position_index(point_coords, at, ids, field: Field):
    """The _mask_index of positions: at names the point at each position,
    from the highest position down, or _EMPTY; a name that is no point
    index raises KeyError.

    A position is a string of bytes: its point's coordinates, one byte each
    or, when q > 255, one per 8-bit digit, then 1, or 0 for an empty
    position.  The strings of the positions are joined once, so bit t of a
    coordinate over all positions is one strided slice, one translate to
    the digits 0 and 1 and one base-2 int; the mask of a value is the AND
    of its bits' planes, or of their complements, within the mask of all
    points.  No mask is grown bit by bit."""
    q, n = field.q, len(point_coords)
    d1 = len(point_coords[0]) if n else 0
    bits = (q - 1).bit_length()
    step = -(-bits // 8)  # bytes per coordinate
    values = itertools.chain.from_iterable(point_coords)
    if step > 1:
        values = (v >> s & 255 for v in values for s in range(0, bits, 8))
    text, size = bytes(values).decode("latin-1"), d1 * step
    cells = dict(enumerate([text[i : i + size] + "\1" for i in range(0, n * size, size)]))
    cells[_EMPTY] = "\0" * (size + 1)
    w = size + 1  # bytes per position
    # str.join copies its parts; bytes.join would hold a buffer per part
    joined = "".join(map(cells.__getitem__, at)).encode("latin-1")
    full = int(joined[w - 1 :: w].translate(_PLANE[0]) or b"0", 2)

    def build(i):
        planes = [
            int(joined[i * step + t // 8 :: w].translate(_PLANE[t % 8]) or b"0", 2)
            for t in range(bits)
        ]
        row = [0] * q
        for v in set(map(operator.itemgetter(i), point_coords)):
            mask = full
            for t, plane in enumerate(planes):
                mask &= plane if v >> t & 1 else ~plane
            row[v] = mask
        return row

    return _Rows(build), full, ids, d1 // 2, {}, {}, field


# The one section cache: entries of _indexed for tuples of tuples, keyed by
# the identity of build's arguments.  Each entry holds its arguments, so
# their ids are not reused while it lives.  A block index is the largest
# entry (CPython 3.11): at Q(5,7), 17,200 lines on 137,600 positions, it
# keeps 1.6 MB of joined coordinates and ids, 0.7 MB of masks once every
# row is read, and about 129 KB per memoized half; at Q(5,8), 33,345
# lines, 3.3 MB, 1.7 MB and 306 KB.  A section memoizes at most 2 halves;
# a sweep of every hyperplane all 2 q^3 of them, 88 MB and 314 MB.
_BY_IDENTITY: dict = {}


def _indexed(build, *args):
    """build(*args), args some lists of rows and then the field, kept per
    argument objects when each list is a tuple of tuples, which cannot
    change: a structure's points and blocks are indexed once, however many
    hyperplanes section them, and never re-hashed.  Any other lists are
    indexed again on every call."""
    key = build, *map(id, args)
    hit = _BY_IDENTITY.get(key)
    if hit is not None:
        return hit[1]
    value = build(*args)
    if all(type(x) is tuple and {*map(type, x)} <= {tuple} for x in args[:-1]):
        if len(_BY_IDENTITY) >= 16:
            del _BY_IDENTITY[next(iter(_BY_IDENTITY))]
        _BY_IDENTITY[key] = args, value
    return value


def _scan(index, start: int, coeffs) -> int:
    """The points of start whose dot product with coeffs vanishes, by meet
    in the middle over a point list's _mask_index: the product is 0 where
    its low half (the first c coordinates) is t and its high half is -t.
    Each half's q residue masks are memoized by its coefficients when first
    needed, the high half negated; so a scan of known halves is q mask ANDs
    (the low masks are disjoint: their sum is their union)."""
    masks, full, _, c, lows, highs, field = index
    key = tuple(coeffs[:c])
    low = lows.get(key)
    if low is None:
        low = lows[key] = _residues(masks, key, field, full, 0)
    key = tuple(coeffs[c:])
    high = highs.get(key)
    if high is None:
        neg = tuple(map(field.neg, key))
        high = highs[key] = _residues(masks, neg, field, full, c)
    return sum(map(int.__and__, low, high)) & start


def _residues(masks, coeffs, field: Field, full: int, first: int) -> list[int]:
    """res[t] = the points of full whose coordinates first, first + 1, ...
    dot coeffs to t, carried from res[0] = full by
    res'[t + h_i * v] |= res[t] & masks[i][v]; only the rows of nonzero
    coefficients are read, and only the nonzero res[t], the live pairs."""
    add, mul = field.add, field.mul
    res = [full] + [0] * (field.q - 1)
    live = [(0, full)]
    for i, h in enumerate(coeffs, first):
        if h == 0:
            continue
        res = [0] * field.q
        for v, at_v in enumerate(masks[i]):
            if at_v:
                hv = mul(h, v)
                for t, rt in live:
                    res[add(t, hv)] |= rt & at_v
        live = [(t, rt) for t, rt in enumerate(res) if rt]
    return res


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# bin(mask)[-1:1:-1] lists the bits of mask, lowest first, as the
# characters 0 and 1; this table turns them into the bytes 0 and 1.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _members(mask: int, ids: tuple[int, ...]) -> list[int]:
    """The set bits of mask, ascending, for a mask of at most len(ids) bits
    and ids = (0, 1, ..., len(ids) - 1): one pass in C, where _bits takes
    one step per set bit."""
    return list(itertools.compress(ids, bin(mask)[-1:1:-1].encode().translate(_BIT_BYTES)))


def hyperplane_section(
    point_coords: list[tuple[int, ...]],
    blocks: list[tuple[int, ...]],
    h: Hyperplane,
    field: Field,
) -> tuple[list[int], list[int], list[int]]:
    """Classify a coordinatized structure against a hyperplane.

    Returns (point indices on h, block indices fully inside h, block indices
    meeting h in exactly one point).  A block meeting h in any other number
    of points (none, or 2 to size-1) is a geometric violation and raises
    GeometryError naming the first such block; so does a block naming a
    point index outside 0..len(point_coords)-1, and so do coefficients that
    are no hyperplane of the points' space: a count other than the points'
    coordinate count, a coefficient that is no int or is outside 0..q-1, or
    all coefficients 0.  The coefficients are checked before any index is
    built.

    The points on h are one scan of the points' hyperplane index (_scan),
    and the blocks' points on h one scan of the blocks' (_block_index): for
    each position j, the blocks whose j-th point is on h.  A block is inside
    h when each of its positions is on h (an empty block is), and must
    otherwise have exactly one on h, counted bit-parallel over the
    positions in a ones and a twos mask.  Only a violation is counted block
    by block, to name it.  A structure's own tuples of tuples are indexed
    once (see _indexed); other inputs are indexed on every call.
    """
    coeffs = h.coeffs
    if point_coords and len(coeffs) != len(point_coords[0]):
        raise GeometryError(
            f"hyperplane has {len(coeffs)} coefficients, "
            f"the points {len(point_coords[0])} coordinates"
        )
    for c in coeffs:
        if not isinstance(c, int):
            raise GeometryError(f"hyperplane coefficient {c!r} is not an int")
        if not 0 <= c < field.q:
            raise GeometryError(f"hyperplane coefficient {c} is outside 0..{field.q - 1}")
    if not any(coeffs):
        raise GeometryError("hyperplane coefficients are all 0")
    points = _indexed(_mask_index, point_coords, field)
    on = _scan(points, points[1], coeffs)
    index, shifts = _indexed(_block_index, point_coords, blocks, field)
    at, ids = _scan(index, index[1], coeffs), index[2]
    off, b = index[1] ^ at, len(ids)
    every = (1 << b) - 1
    miss = ones = twos = 0
    for shift in shifts:
        m = at >> shift & every
        twos |= ones & m
        ones |= m
        miss |= off >> shift
    miss &= every
    bad = miss & ~(ones ^ twos)
    if bad:
        bi = (bad & -bad).bit_length() - 1
        blk = blocks[bi]
        n = sum(on >> x & 1 for x in blk)
        raise GeometryError(f"block {bi} meets the hyperplane in {n} of {len(blk)} points")
    inside = _members(every ^ miss, ids)
    tangent = list(ids)
    for bi in reversed(inside):
        del tangent[bi]
    return _members(on, points[2]), inside, tangent
