"""Exact arithmetic in GF(q) for prime powers q = p^k.

Elements are canonical small integers 0..q-1: the index packs the polynomial
coordinates base p (index = c0 + c1*p + ... + c_{k-1}*p^{k-1}; _digits reads
them off), so 0 and 1 are always the additive and multiplicative identities.
The modulus is the lexicographically smallest monic irreducible of degree k
over GF(p), read with the highest-degree coefficient as the most significant
digit; this makes every element index, and hence every downstream coordinate,
reproducible.  A Field is at most _TABLE_LIMIT elements and does all its
arithmetic (add, neg, mul) by table; a larger order is refused before any
work.  prime_power factors orders up to MAX_ORDER for the integer
constructions.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import isqrt

MAX_ORDER = 1 << 16  # the largest order that prime_power factors
_TABLE_LIMIT = 512  # the largest Field: full q x q tables


class FieldError(ValueError):
    """Domain violation in field construction or arithmetic."""


def _smallest_factor(n: int) -> int:
    """The smallest prime factor of n >= 2: the package's one trial division."""
    return next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)


def _digits(n: int, p: int, k: int) -> tuple:
    """The k base-p digits of n, least significant first."""
    return tuple(n // p ** i % p for i in range(k))


# Polynomials over GF(p) are tuples of coefficients, constant term first.

def _poly_mod(num, den: tuple, p: int) -> tuple:
    """Remainder of num by den (den monic) over GF(p), trailing zeros
    stripped; num's integer coefficients need not be reduced mod p."""
    rem = list(num)
    dd = len(den) - 1
    for shift in range(len(rem) - 1 - dd, -1, -1):
        coef = rem[shift + dd] % p
        if coef:
            for i, c in enumerate(den, shift):
                rem[i] -= coef * c
    rem = [c % p for c in rem[:dd]]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


def _irreducible(poly: tuple, p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if _poly_mod(poly, tail + (1,), p) == ():
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple:
    """Smallest monic irreducible of degree k, ordered by base-p digits
    (every degree k >= 1 has one)."""
    polys = (_digits(t, p, k) + (1,) for t in range(p ** k))
    return next(poly for poly in polys if _irreducible(poly, p))


class Field:
    """The finite field GF(p^k) with deterministic element indexing."""

    def __init__(self, p: int, k: int):
        # a p over the cap or a k over 16 (2^16 is MAX_ORDER) is refused at
        # once: no trial division, and p^k is not formed
        if p > _TABLE_LIMIT or k > 16:
            order = p if k == 1 else f"{p}^{k}"
            raise FieldError(f"field order {order} exceeds cap {_TABLE_LIMIT}")
        if p < 2 or _smallest_factor(p) != p:
            raise FieldError(f"characteristic {p} is not prime")
        if k < 1:
            raise FieldError(f"extension degree must be >= 1, got {k}")
        q = p ** k
        if q > _TABLE_LIMIT:
            raise FieldError(f"field order {q} exceeds cap {_TABLE_LIMIT}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = _smallest_irreducible(p, k)
        self._build_tables()

    def _build_tables(self):
        """add digit by digit, neg off add; mul by the logarithms to the
        smallest g whose powers first return to 1 at q - 1, a primitive element."""
        p, q, n = self.p, self.q, self.q - 1

        def powers(g):  # 1, g, g^2, ... up to g's first return to 1
            out = [1]
            while (x := self._mul_slow(out[-1], g)) != 1:
                out.append(x)
            return out

        exp = next(e for e in map(powers, range(1, q)) if len(e) == n) * 2
        logs = sorted(range(n), key=exp.__getitem__)  # the logs of 1..q-1
        add, digits = [[0]], range(p)
        for _ in range(self.k):
            # a = x + p * a', b = y + p * b': a + b is (x + y) mod p plus p
            # times a' + b', read off the table of one digit fewer
            add = [[(x + y) % p + p * s for s in r for y in digits]
                   for r in add for x in digits]
        self._add_t = add
        self._neg_t = [row.index(0) for row in add]
        self._mul_t = [[0] * q] + [[0] + [exp[i + j] for j in logs] for i in logs]

    def _mul_slow(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        cb = _digits(b, p, k)
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(_digits(a, p, k)):
            if x:
                for j, y in enumerate(cb):
                    conv[i + j] += x * y
        return sum(c * p ** i for i, c in enumerate(_poly_mod(conv, self.modulus, p)))

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add_t[a][b]

    def neg(self, a: int) -> int:
        return self._neg_t[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul_t[a][b]

    def dot(self, u, v) -> int:
        """The field sum of u[i] * v[i], read straight from the tables."""
        acc = 0
        add_t, mul_t = self._add_t, self._mul_t
        for x, y in zip(u, v):
            acc = add_t[acc][mul_t[x][y]]
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field_new(p: int, k: int) -> Field:
    """The canonical GF(p^k); cached so equal parameters share one object."""
    return Field(p, k)


def field_of_order(q: int) -> Field:
    """GF(q) for a prime power q, factoring q as p^k."""
    return field_new(*prime_power(q))


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, p prime, for a q up to MAX_ORDER; else
    FieldError."""
    if q < 2:
        raise FieldError(f"{q} is not a prime power")
    if q > MAX_ORDER:  # before factoring: trial division of a huge q never ends
        raise FieldError(f"field order {q} exceeds cap {MAX_ORDER}")
    p = _smallest_factor(q)
    k, r = 0, q
    while r % p == 0:
        r //= p
        k += 1
    if r != 1:
        raise FieldError(f"{q} is not a prime power")
    return p, k
