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
memoized half dot products (_scan), and a section counts its blocks by
summing the packed stars of those points.  There is one section cache: the
index and stars of a structure's own tuples of tuples are built once and
found by identity (_indexed); other inputs are indexed on every call.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .gf import Field
from .incidence import point_stars


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
    masks[i][v] set when point j has coordinate i equal to v), the mask of
    all its points, their ids, the split c = (d+1)//2, a memo per half
    (see _scan) and the field."""
    n = len(point_coords)
    masks = [[0] * field.q for _ in range(len(point_coords[0]) if n else 0)]
    for j, coords in enumerate(point_coords):
        bit = 1 << j
        for row, v in zip(masks, coords):
            row[v] |= bit
    masks = tuple(map(tuple, masks))
    return masks, (1 << n) - 1, tuple(range(n)), len(masks) // 2, {}, {}, field


# The one section cache: entries of _indexed for tuples of tuples, keyed by
# identity.  Each entry holds its key object, so that object's id is not
# reused while it lives.
_BY_IDENTITY: dict = {}


def _indexed(build, rows, arg):
    """build(rows, arg), kept per rows object when rows is a tuple of tuples,
    which cannot change: a structure's points and blocks are indexed once,
    however many hyperplanes section them, and never re-hashed.  Any other
    rows are indexed again on every call."""
    if type(rows) is tuple:
        key = build, id(rows), arg
        hit = _BY_IDENTITY.get(key)
        if hit is not None:
            return hit[1]
        if all(type(r) is tuple for r in rows):
            value = build(rows, arg)
            if len(_BY_IDENTITY) >= 16:
                del _BY_IDENTITY[next(iter(_BY_IDENTITY))]
            _BY_IDENTITY[key] = rows, value
            return value
    return build(rows, arg)


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
        low = lows[key] = _residues(masks[:c], key, field, full)
    key = tuple(coeffs[c:])
    high = highs.get(key)
    if high is None:
        neg = tuple(map(field.neg, key))
        high = highs[key] = _residues(masks[c:], neg, field, full)
    return sum(map(int.__and__, low, high)) & start


def _residues(rows, coeffs, field: Field, full: int) -> list[int]:
    """res[t] = the points of full whose coordinates in rows dot coeffs to t,
    carried from res[0] = full by res'[t + h_i * v] |= res[t] & rows[i][v]."""
    add, mul = field.add, field.mul
    res = [full] + [0] * (field.q - 1)
    for h, row in zip(coeffs, rows):
        if h == 0:
            continue
        nxt = [0] * field.q
        for v, at_v in enumerate(row):
            if at_v:
                hv = mul(h, v)
                for t, rt in enumerate(res):
                    if rt:
                        nxt[add(t, hv)] |= rt & at_v
        res = nxt
    return res


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _star_index(blocks, n: int):
    """The blocks on n points as packed counts, built once per structure
    (see _indexed).

    Block b owns the w bits from bit w*b, w the bit length of the largest
    block size (at least 1).  A point's packed star holds one unit in the
    field of each block through it, as often as the block names the point,
    so a sum of packed stars counts each block's points among them.  Returns
    the packed stars by point, w, the packed sizes, a unit per field and the
    ids 0..b-1.

    The stars are incidence.point_stars, whose refusal of a point index
    outside 0..n-1, naming the first such block, is raised as GeometryError.
    """
    try:
        stars = point_stars(n, blocks)
    except ValueError as exc:
        raise GeometryError(str(exc)) from None
    sizes = tuple(map(len, blocks))
    w, b = max(sizes, default=0).bit_length() or 1, len(sizes)
    units = ((1 << w * b) - 1) // ((1 << w) - 1)
    packed = sum(map(int.__lshift__, sizes, range(0, w * b, w)))
    unit = [1 << shift for shift in range(0, w * b, w)]
    stars = tuple(sum(map(unit.__getitem__, star)) for star in stars)
    return stars, w, packed, units, tuple(range(b))


# bin(mask)[-1:1:-w] lists bits 0, w, 2w, ... of mask as the characters 0
# and 1; these tables turn them into the bytes 0 and 1, or 1 and 0.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_CLEAR_BYTES = bytes.maketrans(b"01", b"\x01\x00")


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
    coordinate count, a coefficient outside 0..q-1, or all coefficients 0.

    The points on h are one scan of the hyperplane index (_scan); the sum of
    their packed stars (_star_index) is each block's count of them, which
    must be the block's size (inside h) or 1.  Only a violation is counted
    block by block, to name it.  A structure's own tuples of tuples are
    indexed once (see _indexed); other inputs are indexed on every call.
    """
    stars, w, sizes, units, block_ids = _indexed(_star_index, blocks, len(point_coords))
    index = _indexed(_mask_index, point_coords, field)
    masks, full, point_ids = index[:3]
    coeffs = h.coeffs
    if masks and len(coeffs) != len(masks):
        raise GeometryError(
            f"hyperplane has {len(coeffs)} coefficients, the points {len(masks)} coordinates"
        )
    bad = next((c for c in coeffs if not 0 <= c < field.q), None)
    if bad is not None:
        raise GeometryError(f"hyperplane coefficient {bad} is outside 0..{field.q - 1}")
    if not any(coeffs):
        raise GeometryError("hyperplane coefficients are all 0")
    on = _scan(index, full, coeffs)
    inside_pts = _members(on, point_ids)
    counts = sum(map(stars.__getitem__, inside_pts))
    # One unit per block whose count is not its size: field x of the XOR is
    # nonzero iff x or (x | top bit) - 1 has the top bit; the - 1 never borrows.
    diff, top = counts ^ sizes, units << w - 1
    met = (((diff | top) - units | diff) & top) >> w - 1
    if counts & (met << w) - met != met:
        for bi, blk in enumerate(blocks):
            k = sum(on >> x & 1 for x in blk)
            if k != len(blk) and k != 1:
                raise GeometryError(
                    f"block {bi} meets the hyperplane in {k} of {len(blk)} points"
                )
    # each block is inside h or met once: one selector names both lists
    sel = bin(units ^ met | 1 << w * len(block_ids))[-1:1:-w].encode()
    inside = list(itertools.compress(block_ids, sel.translate(_BIT_BYTES)))
    return inside_pts, inside, list(itertools.compress(block_ids, sel.translate(_CLEAR_BYTES)))

