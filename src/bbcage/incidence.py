"""Point-block incidence structures shared by the geometry and design layers."""

from __future__ import annotations

from types import MappingProxyType


def point_stars(n: int, blocks) -> tuple[tuple[int, ...], ...]:
    """For each point 0..n-1, the indices of the blocks through it, ascending.

    A block naming a point twice appears twice in that point's star.  A point
    index outside 0..n-1 raises ValueError naming the first such block.
    """
    stars = [[] for _ in range(n)]
    for bi, blk in enumerate(blocks):
        for x in blk:
            if not 0 <= x < n:
                raise ValueError(f"block {bi} has out-of-range point index {x}")
            stars[x].append(bi)
    return tuple(map(tuple, stars))


class IncidenceStructure:
    """Points with optional payloads, blocks as sorted tuples of point indices.

    The tag mapping carries construction metadata (family, q, order pair,
    gonality, field) used by downstream contracts.  Points, blocks,
    point_blocks and tag are read-only, so cached structures can be shared,
    and so can the incidence graph that graphs.levi stores on the structure.
    """

    def __init__(self, points, blocks, tag=None):
        self.points = tuple(points)
        raw = [tuple(blk) for blk in blocks]
        self.point_blocks = point_stars(len(self.points), raw)
        clean = []
        for bi, t in enumerate(raw):
            if len(set(t)) != len(t):
                raise ValueError(f"block {bi} repeats a point")
            if list(t) != sorted(t):
                t = tuple(sorted(t))
            clean.append(t)
        self.blocks = tuple(clean)
        self.tag = MappingProxyType(dict(tag) if tag else {})
        self._levi = None

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def __repr__(self):
        fam = self.tag.get("family", "structure")
        return f"<{fam}: {self.num_points} points, {self.num_blocks} blocks>"
