"""Closed forms for every value the benchmark checks: orders, degree
classes, girth, diameter, order bounds, hyperplane-section sizes.

Pure standard library, so the library-sweep worker can import it before
its timed loop without loading numpy.
"""

from __future__ import annotations

from math import gcd, isqrt


def moore_even(m: int, n: int, g: int) -> int:
    """(m+n) * sum_{i < g/4} ((m-1)(n-1))^i, the tree bound for g = 0 (mod 4)."""
    lam = (m - 1) * (n - 1)
    return (m + n) * sum(lam ** i for i in range(g // 4))


def improved_even(m: int, n: int, g: int) -> int:
    """The paper's bound for g in {8, 12}: the tree bound, plus (m+n)/gcd(m,n)
    when no generalized g/2-gon of order (m-1, n-1) can exist (divisibility
    or Higman's inequality for quadrangles, st a square for hexagons)."""
    s, t = m - 1, n - 1
    base = moore_even(m, n, g)
    if m < 3:
        return base
    if g == 8:
        exists = (s * t * (s + 1) * (t + 1)) % (s + t) == 0 and s * s >= t and t * t >= s
    elif g == 12:
        exists = isqrt(s * t) ** 2 == s * t
    else:
        return base
    return base if exists else base + (m + n) // gcd(m, n)


def girth6_order(m: int, n: int) -> int:
    """(n/m + 1)(n + 1)(m - 1): the order of the truncated Steiner systems,
    which meets the lower bound for (m, n; 6) when n = -1 (mod m)."""
    return (n + m) * ((n + 1) // m) * (m - 1)


def bounds_fields(m: int, n: int, g: int, order: int) -> dict:
    """The bound fields a report carries for an (m, n; g) graph of an order."""
    moore = moore_even(m, n, g)
    improved = improved_even(m, n, g)
    return {
        "m": m,
        "n": n,
        "girth": g,
        "moore_bound": moore,
        "improved_lower_bound": improved,
        "order": order,
        "excess": order - moore,
        "cage_certified": order == improved,
    }


def gq_counts(s: int, t: int) -> tuple[int, int]:
    """(points, lines) of a generalized quadrangle of order (s, t)."""
    return (s + 1) * (s * t + 1), (t + 1) * (s * t + 1)


def hexagon_counts(q: int) -> tuple[int, int]:
    v = (q ** 6 - 1) // (q - 1)
    return v, v


def _classes(*pairs) -> list[dict]:
    """Per-class {degree: count} in colour order (class of vertex 0 first)."""
    return [{d: c} for c, d in pairs]


def expected_construct(family: str, q: int, host: str | None = None) -> dict:
    """Order, classes (points first), girth and, for polygons, diameter, of
    each construction the benchmark runs, from the closed forms."""
    if family == "q5":
        p, l = gq_counts(q, q * q)
        return {"classes": _classes((p, q * q + 1), (l, q + 1)), "girth": 8,
                "diameter": 4, "mn": (q + 1, q * q + 1)}
    if family == "hexagon":
        p, l = hexagon_counts(q)
        return {"classes": _classes((p, q + 1), (l, q + 1)), "girth": 12,
                "diameter": 6, "mn": (q + 1, q + 1)}
    if family == "q5-subgq-delete":
        # Q(5,q) minus a Q(4,q): points off it keep q^2+1 lines, and each of
        # the (q^2+1)(q^3-q) remaining lines keeps q points
        pts = q * q * (q * q - 1)
        lines = (q * q + 1) * (q ** 3 - q)
        return {"classes": _classes((pts, q * q + 1), (lines, q)), "girth": 8,
                "mn": (q, q * q + 1), "order": (q * q + q + 1) * (q ** 3 - q)}
    if family == "q4-ovoid-delete":
        pts = q * (q * q + 1)
        lines = (q + 1) * (q * q + 1)
        return {"classes": _classes((pts, q + 1), (lines, q)),
                "girth": 10 if q == 2 else 8, "mn": (q, q + 1),
                "order": (q * q + 1) * (2 * q + 1)}
    if family == "q4-hyperbolic-prune":
        pts = q * (q * q - 1)
        lines = (q * q - 1) * (q + 1)
        return {"classes": _classes((pts, q + 1), (lines, q)), "girth": 8,
                "mn": (q, q + 1), "order": (2 * q + 1) * (q * q - 1)}
    if family == "hexagon-hyperbolic-prune":
        # H(q) minus a hyperbolic section of (q^2+1)(q^2+q+1) points
        pts = hexagon_counts(q)[0] - (q * q + 1) * (q * q + q + 1)
        lines = pts * (q + 1) // q
        return {"classes": _classes((pts, q + 1), (lines, q)),
                "girth": 14 if q == 2 else 12, "mn": (q, q + 1),
                "order": (2 * q + 1) * (q ** 4 - q)}
    if family == "mixed-prune" and host == "q5":
        # the (s, t+1; 8) prune of GQ(q, q^2): q^4 points keep q^2+1 lines,
        # q^3 (q^2+1) lines keep q points
        return {"classes": _classes((q ** 4, q * q + 1), (q ** 3 * (q * q + 1), q)),
                "girth": 8, "mn": (q, q * q + 1), "order": q ** 3 * (q * q + q + 1)}
    raise ValueError(f"no closed form for {family} (host {host})")


# -- hyperplane sections ------------------------------------------------------


def section_sizes(kind: str, q: int) -> dict[int, int]:
    """{section size: number of hyperplanes} for every hyperplane of the
    ambient space of a quadric, from the classification of its sections."""
    if kind == "Q(4,q)" and q % 2:  # cone, hyperbolic Q+(3,q), elliptic Q-(3,q)
        return {q * q + q + 1: (q + 1) * (q * q + 1),
                (q + 1) ** 2: q * q * (q * q + 1) // 2,
                q * q + 1: q * q * (q * q - 1) // 2}
    if kind == "Q(5,q)":  # cone over Q-(3,q), parabolic Q(4,q)
        pts = (q + 1) * (q ** 3 + 1)
        return {1 + q * (q * q + 1): pts,
                (q + 1) * (q * q + 1): (q ** 6 - 1) // (q - 1) - pts}
    if kind == "H(q)":  # sections of Q(6,q): cone, Q+(5,q), Q-(5,q)
        pts = (q ** 6 - 1) // (q - 1)
        return {1 + q * (q + 1) * (q * q + 1): pts,
                (q * q + 1) * (q * q + q + 1): q ** 3 * (q ** 3 + 1) // 2,
                (q + 1) * (q ** 3 + 1): q ** 3 * (q ** 3 - 1) // 2}
    raise ValueError(f"no section classification for {kind}, q = {q}")


def deletion_expected(kind: str, q: int, u: int) -> dict:
    """(s, t+1)-biregular graph left by deleting a section of u points and
    the lines inside it from a polygon of order (s, t) with p points."""
    if kind == "H(q)":
        s, t, r = q, q, 6
        p = hexagon_counts(q)[0]
    else:
        s, t = (q, q) if kind == "Q(4,q)" else (q, q * q)
        r = 4
        p = gq_counts(s, t)[0]
    pts = p - u
    lines = pts * (t + 1) // s
    return {"classes": _classes((pts, t + 1), (lines, s)), "mn": (s, t + 1), "r": r}


def steiner_expected(v: int) -> dict:
    """STS(v) minus a point and its blocks: v-1 points of degree n = (v-3)/2
    and blocks of size 3, girth 6, order (n/3 + 1)(n + 1) 2."""
    n = (v - 3) // 2
    blocks = v * (v - 1) // 6 - (v - 1) // 2
    return {"classes": _classes((v - 1, n), (blocks, 3)), "girth": 6,
            "order": girth6_order(3, n), "mn": (3, n)}


FAMILY_TABLE = {
    # the known thick generalized 2r-gons: family -> (order (s, t) in q, r)
    "gq(q,q)": (lambda q: (q, q), 4),
    "gq(q,q^2)": (lambda q: (q, q * q), 4),
    "gq(q^2,q^3)": (lambda q: (q * q, q ** 3), 4),
    "gq(q-1,q+1)": (lambda q: (q - 1, q + 1), 4),
    "hex(q,q)": (lambda q: (q, q), 6),
    "hex(q,q^3)": (lambda q: (q, q ** 3), 6),
    "oct(q,q^2)": (lambda q: (q, q * q), 8),
}


def deletion_order(kind: str, q: int, u: int) -> int:
    return sum(c for cls in deletion_expected(kind, q, u)["classes"] for c in cls.values())


def improved_bound(m: int, n: int, g: int) -> dict:
    """The fields of improved_bound(m, n, g) that have a closed form here:
    both bounds for g in {8, 12}; the improved bound for g = 6 when
    n = -1 (mod m), m >= 3, where the truncated Steiner systems meet it."""
    if g in (8, 12):
        return {"moore_bound": moore_even(m, n, g), "improved_lower_bound": improved_even(m, n, g)}
    if g == 6 and m >= 3 and (n + 1) % m == 0:
        return {"improved_lower_bound": girth6_order(m, n)}
    return {}
