"""Closed-form order bounds for bipartite biregular graphs, excess
computation, cage certification, and the known-polygon family table.

All arithmetic is exact integers; girth arguments are the full girth, while
the odd-case helpers take r = girth/2 directly (matching how each bound is
usually quoted).
"""

from __future__ import annotations

import json
from collections import namedtuple
from math import gcd, isqrt

from .graphs import BipartiteGraph, biregular_pair, girth as graph_girth


class BoundsError(ValueError):
    pass


def _even_series_value(m: int, n: int, half_girth: int) -> int:
    """(m+n) * sum of ((m-1)(n-1))^i for i < half_girth/2, via the series so
    the degenerate lambda in {0, 1} cases stay exact."""
    lam = (m - 1) * (n - 1)
    terms = half_girth // 2
    acc = 0
    p = 1
    for _ in range(terms):
        acc += p
        p *= lam
    return (m + n) * acc


def moore_even(m: int, n: int, girth: int) -> int:
    """Tree-counting lower bound for (m, n; girth) biregular graphs when
    girth/2 is even (girth in {8, 12, 16, ...})."""
    if m < 2 or n < m:
        raise BoundsError(f"need 2 <= m <= n, got ({m}, {n})")
    if girth < 8 or girth % 4:
        raise BoundsError(f"even-case bound needs girth in {{8, 12, ...}}, got {girth}")
    return _even_series_value(m, n, girth // 2)


def _tree_levels(m: int, n: int, depth: int) -> list[int]:
    """Level sizes of the tree grown from a degree-n vertex with branching
    factors alternating n-1 (odd levels' children) and m-1."""
    levels = [1, n]
    for i in range(2, depth + 1):
        levels.append(levels[-1] * ((m - 1) if i % 2 == 0 else (n - 1)))
    return levels[: depth + 1]


def moore_odd(m: int, n: int, r: int) -> int:
    """Lower bound for (m, n; 2r) biregular graphs with r odd: full ball of
    radius r-1 around a degree-n vertex, plus the edge-counted last level,
    plus ceil(n/m) more whenever that level count is not divisible by m."""
    if m < 2 or n < m:
        raise BoundsError(f"need 2 <= m <= n, got ({m}, {n})")
    if r < 3 or r % 2 == 0:
        raise BoundsError(f"odd-case bound needs odd r >= 3, got {r}")
    levels = _tree_levels(m, n, r)
    total = sum(levels[:r]) + -(-levels[r] // m)
    if levels[r] % m:
        total += -(-n // m)
    return total


def divisibility_bound_odd(m: int, n: int, r: int) -> int:
    """Edge-count divisibility bound for odd r: pad the forced size of the
    degree-n class until its edge count is divisible by m."""
    if not 2 < m < n:
        raise BoundsError(f"need 2 < m < n, got ({m}, {n})")
    if r < 3 or r % 2 == 0:
        raise BoundsError(f"divisibility bound needs odd r >= 3, got {r}")
    levels = _tree_levels(m, n, r)
    s0 = sum(levels[i] for i in range(0, r, 2))
    x = next(x for x in range(m) if ((s0 + x) * n) % m == 0)
    small = s0 + x
    return small + small * n // m


def girth6_bound(m: int, n: int) -> int:
    """(n/m + 1)(n+1)(m-1) for 3 <= m <= n with n = -1 (mod m)."""
    if m < 3 or n < m:
        raise BoundsError(f"need 3 <= m <= n, got ({m}, {n})")
    if (n + 1) % m:
        raise BoundsError(f"needs n = -1 (mod m): n={n}, m={m}")
    return (n + m) * ((n + 1) // m) * (m - 1)


def gq_exists_predicates(s: int, t: int) -> dict:
    """Necessary conditions for a thick generalized quadrangle of order (s, t):
    s+t divides st(s+1)(t+1), and the degree inequalities s^2 >= t, t^2 >= s."""
    if s < 2 or t < 2:
        raise BoundsError(f"predicates apply to thick orders, got ({s}, {t})")
    return {
        "divisibility": (s * t * (s + 1) * (t + 1)) % (s + t) == 0,
        "higman": s * s >= t and t * t >= s,
    }


def hexagon_square(s: int, t: int) -> bool:
    """Necessary condition for a generalized hexagon of order (s, t): st is a
    perfect square."""
    if s < 2 or t < 2:
        raise BoundsError(f"predicate applies to thick orders, got ({s}, {t})")
    return isqrt(s * t) ** 2 == s * t


class BoundsReport(
    namedtuple(
        "BoundsReport",
        "m n girth moore_bound improved_lower_bound provenance order excess cage_certified",
        defaults=(None, None, None),
    )
):
    """The bounds for (m, n; girth); order, excess and cage_certified are
    None unless the report is of a graph (excess_of)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"schema": 1, **self._asdict()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _polygon_gap(m: int, n: int, r: int) -> str | None:
    """The provenance tag when no generalized r-gon of order (m-1, n-1) can
    exist by the quadrangle (r = 4) or hexagon (r = 6) predicates, else None."""
    if r == 4:
        if all(gq_exists_predicates(m - 1, n - 1).values()):
            return None
        if n == m + 1:
            return "gq-divisibility-gap"
        return "gq-higman-gap" if n == m * m + 1 else "polygon-nonexistence"
    if r == 6 and not hexagon_square(m - 1, n - 1):
        return "hexagon-square-gap" if n == m + 1 else "polygon-nonexistence"
    return None


# improved_bound refuses, before any series or tree loop, a girth over
# BOUND_MAX_GIRTH, which bounds the loops' length (a cycle, whose bound grows
# only linearly, is at most 2^18 long in verify), and a bound that could
# pass BOUND_MAX_BITS bits (_bound_bits): 2^2100 has 633 decimal digits,
# under the 640 below which no interpreter digit limit applies
# (sys.int_info.str_digits_check_threshold), so every accepted report is
# printed the same whatever PYTHONINTMAXSTRDIGITS is.
BOUND_MAX_GIRTH = 1 << 20
BOUND_MAX_BITS = 2100


def _bound_bits(m: int, n: int, r: int) -> int:
    """An upper bound on the bit length of each bound for (m, n; 2r): each
    is at most (r + 2)(m + n) lam^(r // 2), lam = (m-1)(n-1), and the bit
    length of lam^e is at most e * (lam - 1).bit_length()."""
    lam = (m - 1) * (n - 1)
    return (r // 2) * (lam - 1).bit_length() + (m + n).bit_length() + (r + 2).bit_length()


def improved_bound(m: int, n: int, g: int) -> BoundsReport:
    """Best lower bound this library knows for (m, n; g) biregular graphs.

    A girth over BOUND_MAX_GIRTH, or a bound that may need more than
    BOUND_MAX_BITS bits, is refused before anything is summed.

    For g/2 even, starts from moore_even and adds (m+n)/gcd(m,n) whenever the
    relevant polygon-nonexistence predicate fires on order (m-1, n-1).  For
    g/2 odd, takes the larger of the odd-case tree bound and the divisibility
    bound.  The provenance tag names the argument that produced the value.
    """
    if m < 2 or n < m:
        raise BoundsError(f"need 2 <= m <= n, got ({m}, {n})")
    if g < 6 or g % 2:
        raise BoundsError(f"need even girth >= 6, got {g}")
    if g > BOUND_MAX_GIRTH:
        raise BoundsError(f"girth {g} is over the cap of {BOUND_MAX_GIRTH}")
    r = g // 2
    bits = _bound_bits(m, n, r)
    if bits > BOUND_MAX_BITS:
        raise BoundsError(
            f"the bounds for ({m}, {n}; {g}) may need {bits} bits, over the cap of {BOUND_MAX_BITS}"
        )
    if r % 2 == 0:
        base = improved = moore_even(m, n, g)
        prov = _polygon_gap(m, n, r) if m >= 3 else None
        if prov:
            improved += (m + n) // gcd(m, n)
    else:
        base = improved = moore_odd(m, n, r)
        prov = None
        if 2 < m < n:
            div = divisibility_bound_odd(m, n, r)
            if div >= base:
                improved = div
                prov = (
                    "girth6-divisibility"
                    if r == 3 and (n + 1) % m == 0
                    else "odd-r-divisibility"
                )
    return BoundsReport(
        m=m,
        n=n,
        girth=g,
        moore_bound=base,
        improved_lower_bound=improved,
        provenance=prov or "none",
    )


def excess_of(g: BipartiteGraph) -> BoundsReport:
    """BoundsReport for a biregular graph: order, excess over the tree bound,
    and cage certification (order equals the improved lower bound)."""
    m, n = biregular_pair(g)
    gi = graph_girth(g)
    if gi == float("inf") or gi % 2:
        raise BoundsError(f"graph has no even finite girth (girth {gi})")
    report = improved_bound(m, n, int(gi))
    order = g.n_vertices
    return report._replace(
        order=order,
        excess=order - report.moore_bound,
        cage_certified=order == report.improved_lower_bound,
    )


# -- known-polygon prune table -------------------------------------------------

def _row_templates():
    """Parameter rows for the known thick generalized 2r-gon families: the
    polygon order (m, n), the gonality, and the published per-(m+n+1) column
    formulas for the pruned-graph order, the tree bound, and the excess
    (None where only an asymptotic magnitude is published)."""
    return [
        ("gq(q,q)", lambda q: (q, q), 4,
         lambda q: q * q, lambda q: q * q - q + 1,
         lambda q: (2 * q + 1) * (q - 1)),
        ("gq(q,q^2)", lambda q: (q, q * q), 4,
         lambda q: q ** 3, lambda q: q ** 3 - q * q + 1,
         lambda q: (q * q + q + 1) * (q * q - 1)),
        ("gq(q^2,q^3)", lambda q: (q * q, q ** 3), 4,
         lambda q: q ** 5, lambda q: q ** 5 - q ** 3 + 1,
         lambda q: (q ** 3 + q * q + 1) * (q ** 3 - 1)),
        ("gq(q-1,q+1)", lambda q: (q - 1, q + 1), 4,
         lambda q: q * q - 1, lambda q: q * q - q,
         lambda q: (2 * q + 1) * (q - 1)),
        ("hex(q,q)", lambda q: (q, q), 6,
         lambda q: q ** 4,
         lambda q: ((q * q - q) ** 3 - 1) // (q * q - q - 1),
         lambda q: (2 * q + 1) * (q - 1)),
        ("hex(q,q^3)", lambda q: (q, q ** 3), 6,
         lambda q: q ** 8,
         lambda q: ((q ** 4 - q ** 3) ** 3 - 1) // (q ** 4 - q ** 3 - 1),
         None),
        ("oct(q,q^2)", lambda q: (q, q * q), 8,
         lambda q: q ** 9,
         lambda q: ((q ** 3 - q * q) ** 4 - 1) // (q ** 3 - q * q - 1),
         None),
    ]


def polygon_family_table(q_values) -> list[dict]:
    """One row per known polygon family and q: the edge-prune graph order and
    tree-bound columns from the general formulas next to the published
    per-family formulas, any disagreeing cell flagged.  Each q must be a prime
    power up to prime_power's cap 2^16, not Field's 512 (else FieldError)."""
    from .gf import prime_power

    rows = []
    for q in q_values:
        prime_power(q)
        for name, order_fn, r, f_pub, b_pub, e_pub in _row_templates():
            m, n = order_fn(q)
            scale = m + n + 1
            f_col = (m * n) ** (r // 2 - 1)
            b_col = _even_series_value(m, n + 1, r) // scale
            row = {
                "family": name,
                "q": q,
                "degree_small": m + 1,
                "degree_large": n + 1,
                "girth": 2 * r,
            }
            for col, value, pub in (
                ("prune_col", f_col, f_pub),
                ("moore_col", b_col, b_pub),
                ("excess", scale * (f_col - b_col), e_pub),
            ):
                published = pub(q) if pub else None
                row[col] = value
                row[f"{col}_published"] = published
                row[f"{col}_mismatch"] = published is not None and published != value
            rows.append(row)
    return rows
