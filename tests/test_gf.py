import itertools
import os
import random
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

from conftest import digit_add, inverse

from bbcage.gf import _TABLE_LIMIT, Field, FieldError, field_new, field_of_order


def test_prime_field_modulus_is_x():
    f = field_new(2, 1)
    assert (f.p, f.k, f.q) == (2, 1, 2)
    assert f.modulus == (0, 1)


def test_gf9_modulus_is_smallest_irreducible():
    # enumeration oracle: x^2 is reducible, x^2 + 1 has no root mod 3
    f = field_new(3, 2)
    assert f.modulus == (1, 0, 1)
    assert all((t * t + 1) % 3 != 0 for t in range(3))


def test_gf8_modulus():
    # degree-3 candidates in digit order: x^3, x^3+1, x^3+x, x^3+x+1 (first irreducible)
    assert field_new(2, 3).modulus == (1, 1, 0, 1)


def test_non_prime_characteristic_rejected():
    with pytest.raises(FieldError):
        Field(4, 1)
    with pytest.raises(FieldError):
        Field(6, 1)


def test_bad_degree_and_cap():
    with pytest.raises(FieldError):
        Field(2, 0)
    with pytest.raises(FieldError):
        Field(2, 17)  # 2^17 over the cap


def test_small_value_examples():
    f3 = field_new(3, 1)
    assert f3.add(2, 2) == 1
    f4 = field_new(2, 2)
    assert f4.mul(2, 2) == 3  # x * x = x + 1 modulo x^2 + x + 1
    f5 = field_new(5, 1)
    assert f5.mul(2, 3) == 1


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_field_axioms_random_triples(p, k):
    f = field_new(p, k)
    rng = random.Random(f.q)
    for _ in range(1000):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, f.q):
        assert f._mul_t[a].count(1) == 1  # a has one inverse
        assert reduce(f.mul, [a] * (f.q - 1)) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_multiplicative_group_is_cyclic(q):
    f = field_of_order(q)
    found = False
    for a in range(2, q):
        x, order = a, 1
        while x != 1:
            x = f.mul(x, a)
            order += 1
        if order == q - 1:
            found = True
            break
    assert found or q == 2


def test_identity_indices():
    for q in (2, 3, 4, 8, 9):
        f = field_of_order(q)
        for a in range(q):
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0


def test_field_of_order():
    assert field_of_order(9) == field_new(3, 2)
    assert field_of_order(8) == field_new(2, 3)
    with pytest.raises(FieldError):
        field_of_order(12)
    with pytest.raises(FieldError):
        field_of_order(1)


def test_no_field_beyond_table_limit():
    # every Field has tables: GF(1024) and GF(521) are refused, naming the cap
    cap = f"exceeds cap {_TABLE_LIMIT}"
    with pytest.raises(FieldError, match=cap):
        Field(2, 10)
    with pytest.raises(FieldError, match=cap):
        Field(521, 1)
    with pytest.raises(FieldError, match=cap):
        field_of_order(1024)


_HUGE_REFUSALS = """
from bbcage.gf import Field, FieldError
for p, k in ((2**61 - 1, 1), (2, 10**9), (10**30 + 57, 3)):
    try:
        Field(p, k)
    except FieldError as e:
        print(e)
"""


def test_huge_refusals_end_quickly():
    # a prime p near 2^61 would take trial division to 1.5e9, 2^(10^9) is a
    # 125 MB integer: the cap refuses each before either.  In a child
    # process, so that a hang fails under the timeout
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", _HUGE_REFUSALS], env=env,
                          capture_output=True, text=True, timeout=5)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert len(lines) == 3 and all(f"exceeds cap {_TABLE_LIMIT}" in s for s in lines)


@pytest.mark.parametrize("p,k", [(2, 2), (5, 1)])
def test_dot_matches_add_mul_fold(p, k):
    f = field_new(p, k)
    q = f.q
    rng = random.Random(q)
    for n in (0, 1, 5, 7):
        u = [rng.randrange(q) for _ in range(n)]
        v = [rng.randrange(q) for _ in range(n)]
        acc = 0
        for x, y in zip(u, v):
            acc = f.add(acc, f.mul(x, y))
        assert f.dot(u, v) == acc


def _tables_sha256(fields) -> str:
    """SHA-256 of the add and mul tables of GF(p^k) for each (p, k), and of
    the inverses read off the mul rows."""
    import hashlib

    h = hashlib.sha256()
    for p, k in fields:
        f = Field(p, k)
        inv = [0] + [inverse(f, a) for a in range(1, f.q)]
        h.update(repr((f._add_t, f._mul_t, inv)).encode())
    return h.hexdigest()


def test_extension_tables_pinned():
    # all 13 extension fields of order <= 128: element indexing and
    # arithmetic are pinned
    assert _tables_sha256([(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 2),
                           (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)]) == (
        "18fa2ac79f1d36f7840d55f942f4fe1e3abed863603b644e10818ab6da90eb75"
    )


def test_large_table_fields_pinned():
    # GF(243), GF(256) and GF(343), the largest fields with tables in
    # characteristics 3, 2 and 7
    assert _tables_sha256([(3, 5), (2, 8), (7, 3)]) == (
        "bf39c6b0a89254a6651bf7eeae8e2c5f1d5bc7a708f0e71edf5921784d22ca6b"
    )


@pytest.mark.parametrize("p,k", [(3, 3), (2, 5), (7, 2), (2, 9), (509, 1)])
def test_tables_match_slow_arithmetic(p, k):
    # the tables come from logarithms and digit sums; the slow path from
    # polynomial products reduced by the modulus.  Every pair is compared
    # in the small fields, 4000 random pairs in GF(512) and GF(509), the
    # largest fields with tables, whose tables no digest pins.  Every
    # element's table negative is its additive inverse.
    f = field_new(p, k)
    q = f.q
    if q <= 64:
        pairs = list(itertools.product(range(q), repeat=2))
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(4000)]
    for a, b in pairs:
        assert f._add_t[a][b] == digit_add(f, a, b)
        assert f._mul_t[a][b] == f._mul_slow(a, b)
    assert all(f._mul_slow(a, inverse(f, a)) == 1 for a in range(1, q))
    assert all(f.add(a, f.neg(a)) == 0 for a in range(q))


@pytest.mark.parametrize("p,k", [(2, 9), (3, 5), (7, 3)])
def test_xpow_is_x_to_the_j_mod_modulus(p, k):
    # independent oracle: multiply by x one step at a time and reduce by
    # subtracting the top coefficient times the monic modulus; the slow
    # multiply must give the same x^j for j = k..2k-2
    f = field_new(p, k)
    x = p  # the element x, coefficient 1 at degree 1
    x_j = p ** (k - 1)
    cur = [0] * (k - 1) + [1]  # x^(k-1)
    for j in range(k, 2 * k - 1):
        top = cur[-1]
        cur = [(c - top * m) % p for c, m in zip([0] + cur[:-1], f.modulus)]
        x_j = f._mul_slow(x_j, x)
        assert x_j == sum(c * p ** i for i, c in enumerate(cur))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27])
def test_inverse_table_is_a_to_the_q_minus_2(q):
    # the inverse read off each multiplication row against Lagrange's
    # a^(q-2), a power of slow products
    f = field_of_order(q)
    lagrange = [reduce(f._mul_slow, [a] * (q - 2), 1) for a in range(1, q)]
    assert [inverse(f, a) for a in range(1, q)] == lagrange
