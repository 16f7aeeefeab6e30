import json

import pytest

from conftest import bipartite_from_edges, tree_count_oracle

from bbcage.bounds import (
    BOUND_MAX_BITS,
    BOUND_MAX_GIRTH,
    BoundsError,
    _bound_bits,
    divisibility_bound_odd,
    excess_of,
    girth6_bound,
    gq_exists_predicates,
    hexagon_square,
    improved_bound,
    moore_even,
    moore_odd,
    polygon_family_table,
)
from bbcage.graphs import BipartiteGraph


def test_moore_even_values():
    assert moore_even(3, 4, 8) == 49
    assert moore_even(2, 3, 8) == 15
    assert moore_even(3, 10, 8) == 247
    assert moore_even(3, 4, 12) == 301
    assert moore_even(2, 2, 8) == 8  # the cycle


def test_moore_even_domain():
    with pytest.raises(BoundsError):
        moore_even(3, 4, 10)  # half-girth odd
    with pytest.raises(BoundsError):
        moore_even(1, 4, 8)
    with pytest.raises(BoundsError):
        moore_even(4, 3, 8)


def test_moore_even_monotone():
    for m in range(2, 7):
        for n in range(m, 9):
            for g in (8, 12):
                v = moore_even(m, n, g)
                assert moore_even(m, n + 1, g) > v
                assert moore_even(m + 1, n + 1, g) > v
                assert moore_even(m, n, g + 4) > v


def test_moore_odd_values():
    assert moore_odd(3, 4, 5) == 133
    assert moore_odd(3, 5, 3) == 32
    assert moore_odd(2, 3, 5) == 25
    assert moore_odd(3, 3, 5) == 62


def test_moore_odd_matches_power_formula_oracle():
    for r in (3, 5, 7):
        for m in range(2, 6):
            for n in range(m, 9):
                assert moore_odd(m, n, r) == tree_count_oracle(m, n, r)


def test_moore_odd_domain():
    with pytest.raises(BoundsError):
        moore_odd(3, 4, 4)
    with pytest.raises(BoundsError):
        moore_odd(3, 2, 3)


def test_divisibility_bound_values():
    assert divisibility_bound_odd(3, 5, 3) == 32
    assert divisibility_bound_odd(3, 8, 3) == 66
    assert divisibility_bound_odd(4, 7, 3) == 66
    with pytest.raises(BoundsError):
        divisibility_bound_odd(3, 3, 3)
    with pytest.raises(BoundsError):
        divisibility_bound_odd(2, 5, 3)


def test_girth6_bound_values():
    assert girth6_bound(3, 5) == 32
    assert girth6_bound(4, 7) == 66
    with pytest.raises(BoundsError):
        girth6_bound(3, 4)


def test_girth6_equals_divisibility_when_congruent():
    for m in range(3, 7):
        for n in range(m + 1, 30):
            if (n + 1) % m == 0:
                assert girth6_bound(m, n) == divisibility_bound_odd(m, n, 3)


def test_gq_predicates():
    p23 = gq_exists_predicates(2, 3)
    assert not p23["divisibility"]
    p24 = gq_exists_predicates(2, 4)
    assert p24["divisibility"] and p24["higman"]
    assert not gq_exists_predicates(2, 5)["higman"]
    assert not hexagon_square(2, 3)
    assert hexagon_square(2, 2)
    assert hexagon_square(4, 9)  # 36


def test_improved_bound_values():
    assert improved_bound(3, 4, 8).improved_lower_bound == 56
    assert improved_bound(3, 10, 8).improved_lower_bound == 260
    assert improved_bound(3, 4, 12).improved_lower_bound == 308
    assert improved_bound(3, 4, 8).provenance == "gq-divisibility-gap"
    assert improved_bound(3, 10, 8).provenance == "gq-higman-gap"
    assert improved_bound(3, 4, 12).provenance == "hexagon-square-gap"


def test_improved_bound_no_fire():
    r = improved_bound(3, 5, 8)  # an order (2, 4) quadrangle exists
    assert r.improved_lower_bound == r.moore_bound == 72
    assert r.provenance == "none"
    r = improved_bound(2, 3, 8)  # dual grids exist below the thick range
    assert r.improved_lower_bound == 15
    assert r.provenance == "none"


def test_improved_bound_girth6():
    r = improved_bound(3, 5, 6)
    assert r.improved_lower_bound == 32
    assert r.provenance == "girth6-divisibility"
    r2 = improved_bound(4, 7, 6)
    assert r2.improved_lower_bound == 66
    r3 = improved_bound(3, 4, 6)
    assert r3.provenance == "odd-r-divisibility"
    assert r3.improved_lower_bound == 21


def test_improved_at_least_moore_everywhere():
    for m in range(2, 7):
        for n in range(m, 10):
            for g in (6, 8, 10, 12):
                rep = improved_bound(m, n, g)
                assert rep.improved_lower_bound >= rep.moore_bound


def test_excess_of_cycle():
    g8 = bipartite_from_edges(
        4, 4, [(i, i) for i in range(4)] + [(i, (i + 1) % 4) for i in range(4)]
    )
    rep = excess_of(g8)
    assert rep.moore_bound == 8
    assert rep.excess == 0
    assert rep.cage_certified


def test_excess_of_rejects_irregular():
    g = BipartiteGraph(2, 2, [[0, 1], [0]])
    with pytest.raises(Exception):
        excess_of(g)


def test_report_json_stable():
    rep = improved_bound(3, 4, 8)
    text = rep.to_json()
    data = json.loads(text)
    assert data["schema"] == 1
    assert list(data) == sorted(data)
    assert rep.to_json() == text


def test_table_row_values_q2():
    rows = {(r["family"], r["q"]): r for r in polygon_family_table([2])}
    r1 = rows[("gq(q,q)", 2)]
    assert (r1["prune_col"], r1["moore_col"], r1["excess"]) == (4, 3, 5)
    assert not r1["moore_col_mismatch"] and not r1["excess_mismatch"]
    r2 = rows[("gq(q,q^2)", 2)]
    assert (r2["prune_col"], r2["moore_col"], r2["excess"]) == (8, 5, 21)
    r5 = rows[("hex(q,q)", 2)]
    assert (r5["prune_col"], r5["moore_col"]) == (16, 7)
    assert r5["excess"] == 45
    assert r5["excess_mismatch"]  # published column reads (2q+1)(q-1) = 5
    r4 = rows[("gq(q-1,q+1)", 2)]
    assert r4["moore_col"] == 1 and r4["moore_col_published"] == 2
    assert r4["moore_col_mismatch"]


def test_table_prune_column_always_matches():
    for row in polygon_family_table([2, 3, 4, 5]):
        assert not row["prune_col_mismatch"]


def test_table_moore_column_matches_except_qminus1_family():
    for row in polygon_family_table([2, 3, 4]):
        if row["family"] == "gq(q-1,q+1)":
            # published entry is one above the tree-count evaluation
            assert row["moore_col_published"] - row["moore_col"] == 1
        else:
            assert not row["moore_col_mismatch"]


def test_bound_bits_is_an_upper_bound():
    # _bound_bits, which improved_bound checks against its cap before any
    # loop runs, is never below the bit length of either bound
    for m in range(2, 9):
        for n in range(m, 30):
            for g in range(6, 160, 2):
                report = improved_bound(m, n, g)
                bits = _bound_bits(m, n, g // 2)
                assert report.moore_bound.bit_length() <= bits
                assert report.improved_lower_bound.bit_length() <= bits


@pytest.mark.parametrize(
    "m,n,g,error",
    [
        (3, 4, 2_000_000, "girth 2000000 is over the cap of 1048576"),
        (2, 2, (1 << 20) + 2, "girth 1048578 is over the cap of 1048576"),
        (3, 4, 200_000, r"the bounds for \(3, 4; 200000\) may need 150020 bits, over the cap of 2100"),
        (3, 10**700, 6, r"the bounds for \(3, 10{700}; 6\) may need \d+ bits, over the cap of 2100"),
    ],
    ids=["huge-girth", "cycle-past-cap", "too-many-bits", "huge-degree"],
)
def test_improved_bound_refuses_before_summing(m, n, g, error):
    if "10{700}" in error:
        error = error.replace("10{700}", "1" + "0" * 700)
    with pytest.raises(BoundsError, match=f"^{error}$"):
        improved_bound(m, n, g)


def test_improved_bound_at_the_caps():
    # a cycle as long as verify accepts, and the largest (3, 4) girth
    assert improved_bound(2, 2, 1 << 18).improved_lower_bound == 1 << 18
    assert improved_bound(2, 2, BOUND_MAX_GIRTH).moore_bound == BOUND_MAX_GIRTH
    assert improved_bound(3, 4, 2782).improved_lower_bound.bit_length() <= BOUND_MAX_BITS
