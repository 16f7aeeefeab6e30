import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import bfs_distances, lines_in, pg_space, structure_delete

from bbcage import designs
from bbcage.designs import (
    Design,
    DesignError,
    design_load,
    design_save,
    design_validate,
    steiner_truncate,
    sts_generate,
    truncation_degrees,
)
from bbcage.gf import field_new
from bbcage.graphs import expect_biregular, girth, levi
from bbcage.incidence import IncidenceStructure


@pytest.mark.parametrize("v", [7, 9, 13, 15, 19, 21, 25, 31, 37])
def test_sts_valid(v):
    d = sts_generate(v)
    assert d.b == v * (v - 1) // 6
    assert design_validate(d).valid


@pytest.mark.parametrize(
    "v,digest",
    [
        (7, "cf32bf29a6c9779ae19f0ffd01faa7278fc399ef18bcf969165e405cdf0d5cff"),
        (9, "a4946df4ddcfcfdd85efd00210215dcb259f0e6e694b66d578119d8401eb51eb"),
        (13, "e77d9dea531fae5429f75499be1aedbf9b8cf1d7acddd6d9be8115bbf47c91da"),
        (15, "ef928dab2638711aa95782960bd05a5b4bd47ddc450a227711c82e6361ab443d"),
        (97, "d7c03973a906bcd35cc87e8bfe8c600577bf4b10ad5ad322b668d677753f0851"),
        (99, "95fb1a7b511baa689a6b6e7ab7663362ce589a22198436988cc3fef0f87b0d39"),
    ],
)
def test_sts_file_bytes_pinned(v, digest):
    # Skolem (v = 1 mod 6) and Bose (v = 3 mod 6) share one triple loop
    assert hashlib.sha256(design_save(sts_generate(v)).encode()).hexdigest() == digest


@pytest.mark.parametrize("v", [6, 8, 11, 5, 17, 13.0])
def test_sts_infeasible(v):
    # 13.0 equals the key 13 of the cache, yet only an int v is a point count
    with pytest.raises(DesignError, match=f"^no Steiner triple system on {v} points$"):
        sts_generate(v)


def test_sts7_is_fano():
    d = sts_generate(7)
    assert d.b == 7
    pairs = {p for blk in d.blocks for p in itertools.combinations(blk, 2)}
    assert len(pairs) == 21


def test_validate_reports_missing_block():
    d = sts_generate(9)
    broken = Design(9, d.blocks[1:])
    report = design_validate(broken)
    assert not report.valid
    assert not report.pair_coverage
    assert report.problems


def test_validate_reports_duplicate_block():
    d = sts_generate(9)
    doubled = Design(9, d.blocks + d.blocks[:1])
    report = design_validate(doubled)
    assert not report.valid


def test_validate_counts_pairs_in_any_block_order():
    d = sts_generate(7)
    report = design_validate(Design(7, tuple(blk[::-1] for blk in d.blocks)))
    assert report.valid
    assert report.problems == []


@pytest.mark.parametrize("bad", [9, -1])
def test_validate_reports_point_out_of_range(bad):
    # the last Fano block (2, 4, 6) names a point outside 0..6 instead of 6;
    # -1 must not be counted as point 6, and 9 must not raise
    d = sts_generate(7)
    assert d.blocks[-1] == (2, 4, 6)
    report = design_validate(Design(7, d.blocks[:-1] + ((2, 4, bad),)))
    assert not report.valid
    assert report.problems[0] == f"points outside 0..6: [{bad}]"
    assert "uncovered pairs: [(2, 6), (4, 6)]" in report.problems
    assert not report.pair_coverage
    assert not report.uniform_replication


def test_truncate_sts13():
    g = steiner_truncate(sts_generate(13))
    assert g.n_vertices == 32
    assert (g.n_a, g.n_b) == (12, 20)
    assert expect_biregular(g, 3, 5, 6, g.n_vertices, "STS(13) truncation") is g


def test_truncate_sts19():
    g = steiner_truncate(sts_generate(19))
    assert g.n_vertices == 66
    assert expect_biregular(g, 3, 8, 6, g.n_vertices, "STS(19) truncation") is g


def test_truncate_sts9_rejected():
    # replication 4 gives n = 3, and 3 is not -1 mod 3
    with pytest.raises(DesignError):
        steiner_truncate(sts_generate(9))


@pytest.mark.parametrize(
    "v,k,message",
    [
        (9, 2, "block size must be at least 3"),
        (10, 3, "replication (v-1)/(k-1) is not integral for v=10"),
        (7, 3, "needs block size <= truncated degree, got m=3 > n=2"),
        (1251, 3, "needs n = -1 (mod m): n=624, m=3"),
    ],
)
def test_truncation_degrees_refusals(v, k, message):
    # the truncation conditions need only (v, k), so no design is built
    assert (truncation_degrees(13, 3), truncation_degrees(19, 3)) == ((3, 5), (3, 8))
    with pytest.raises(DesignError) as err:
        truncation_degrees(v, k)
    assert str(err.value) == message


@pytest.mark.parametrize("v", [13, 19])
def test_truncate_reconstruction_pairing(v):
    g = steiner_truncate(sts_generate(v))
    adj = g.adjacency()
    far = {}
    for s in range(g.n_a):
        dist = bfs_distances(adj, s)
        others = [x for x in range(g.n_a) if x != s and dist[x] > 2]
        assert len(others) == 1  # unique far partner per point
        far[s] = others[0]
    assert all(far[far[s]] == s for s in far)


def test_truncate_any_point_same_parameters():
    d = sts_generate(13)
    for x in (0, 5, 12):
        g = steiner_truncate(d, x)
        assert g.n_vertices == 32
        assert girth(g) == 6


@pytest.mark.parametrize("v", [13, 19])
def test_truncation_matches_the_structure_oracle(v):
    d = sts_generate(v)
    s = IncidenceStructure([None] * v, d.blocks)
    for x in range(v):
        through = [bi for bi, blk in enumerate(d.blocks) if x in blk]
        assert steiner_truncate(d, x).adj_a == structure_delete(s, [x], through).adj_a


def test_file_roundtrip():
    d = sts_generate(13)
    text = design_save(d)
    assert design_save(design_load(text)) == text
    assert text.endswith("\n")


def test_file_errors():
    with pytest.raises(DesignError):
        design_load("")
    with pytest.raises(DesignError):
        design_load("7 1\n0 1 2\n")
    with pytest.raises(DesignError):
        design_load("3 1 3\n0 1 7\n")  # index out of range
    with pytest.raises(DesignError):
        design_load("4 1 3\n0 1\n")  # wrong block size
    with pytest.raises(DesignError):
        design_load("4 2 3\n0 1 2\n")  # block count mismatch
    with pytest.raises(DesignError):
        design_load("4 1 3\n0 1 1\n")  # repeated point
    for header in ("-1 0 3", "3 -1 3", "0 0 -2"):
        with pytest.raises(DesignError, match="negative"):
            design_load(header + "\n")
    # only ASCII decimals: no non-ASCII digit, sign or digit separator
    for text in ("\u0667 1 3\n0 1 2\n", "+7 1 3\n0 1 2\n", "11 1 3\n0 1_0 2\n"):
        with pytest.raises(DesignError, match="ASCII decimals"):
            design_load(text)


def test_file_separators_are_lf_and_ascii_space_only():
    for text in (
        "7\xa01 3\n0 1 2\n",  # no-break space between fields
        "7 1 3\x1c0 1 2\n",  # file separator between lines
        "7 1 3\r0 1 2\n",  # CR between lines
        "7 1 3\r\n0 1 2\r\n",  # CRLF line ends
        "7 1 3\n0\t1 2\n",  # tab between fields
        "7 1 3\n0 1 2\n\t\n",  # a line of a tab is not blank
    ):
        with pytest.raises(DesignError):
            design_load(text)
    # runs of ASCII spaces, lines of spaces and a missing last LF still load
    assert design_load(" 7  1 3 \n0 1  2\n  \n\n") == design_load("7 1 3\n0 1 2")


def test_pg23_as_design():
    # the 13 lines of PG(2, 3) form an S(2, 4, 13)
    space = pg_space(2, field_new(3, 1))
    lines = lines_in(space, range(len(space.points)))
    d = Design(13, tuple(lines))
    assert design_validate(d).valid
    text = design_save(d)
    assert design_save(design_load(text)) == text
    # block size 4 exceeds the truncated degree 3
    with pytest.raises(DesignError):
        steiner_truncate(d)


def test_truncated_design_levi_from_structure():
    d = sts_generate(13)
    g = levi(IncidenceStructure(range(d.v), d.blocks))
    assert g.n_vertices == 13 + 26


def test_polygon_blocks_export_in_design_format():
    # uniform block size lets incidence structures ride the design file format
    from bbcage.polygons import gq_q4

    s = gq_q4(field_new(2, 1))
    d = Design(s.num_points, tuple(s.blocks))
    text = design_save(d)
    back = design_load(text)
    assert back.blocks == d.blocks
    assert design_save(back) == text
    assert not design_validate(back).valid  # a quadrangle is not a 2-design


@pytest.fixture
def sts_cache(monkeypatch):
    """An empty triple-system cache for one test, the process's own restored
    after it."""
    cache = {}
    monkeypatch.setattr(designs, "_sts_cache", cache)
    return cache


@pytest.fixture
def structures_built(monkeypatch):
    """The block lists of the incidence structures steiner_truncate builds,
    one per host, in call order."""
    built = []

    def counting(points, blocks):
        built.append(blocks)
        return IncidenceStructure(points, blocks)

    monkeypatch.setattr(designs, "IncidenceStructure", counting)
    return built


def test_sts_repeat_returns_the_same_object(sts_cache):
    d = sts_generate(13)
    assert sts_generate(13) is d
    assert sts_generate(15) is not d
    assert list(sts_cache) == [13, 15]


def test_sts_validated_once_per_v(sts_cache, monkeypatch):
    checked = []

    def counting(design):
        checked.append(design.v)
        return design_validate(design)

    monkeypatch.setattr(designs, "design_validate", counting)
    for v in (13, 19, 13, 13, 19, 21):
        sts_generate(v)
    assert checked == [13, 19, 21]


def test_sts_cache_holds_at_most_its_bound_lru_first(sts_cache, monkeypatch):
    # b = 26, 57, 70 and 117 for v = 13, 19, 21 and 27
    monkeypatch.setattr(designs, "STS_CACHE_BLOCKS", 130)
    held = []
    for v in (13, 19, 13, 21, 19, 27):
        d = sts_generate(v)
        held.append(list(sts_cache))
        assert sts_cache[v][0] is d
        assert sum(e[0].b for e in sts_cache.values()) <= 130
    assert held == [
        [13],
        [13, 19],
        [19, 13],  # returned again: now the most recently returned
        [13, 21],  # 83 + 70 > 130: 19 goes, the least recently returned
        [21, 19],
        [27],  # 117 + 127 and 117 + 57 are over the bound
    ]


def test_sts_over_the_bound_is_returned_not_kept(sts_cache, monkeypatch):
    monkeypatch.setattr(designs, "STS_CACHE_BLOCKS", 60)
    small = sts_generate(19)  # 57 blocks
    big = sts_generate(21)  # 70 blocks
    assert design_validate(big).valid and big.b == 70
    assert list(sts_cache) == [19]
    assert sts_generate(21) is not big and sts_generate(21) == big
    assert sts_generate(19) is small


def test_sts_at_the_cap_fits_the_bound():
    # the largest STS the order cap lets construct truncate, v = 1249
    assert 1249 * 1248 // 6 <= designs.STS_CACHE_BLOCKS < 2 * (1249 * 1248 // 6)


def test_one_host_for_every_truncation_of_the_cached_design(sts_cache, structures_built):
    d = sts_generate(19)
    graphs = [steiner_truncate(d, x) for x in range(19)]
    assert structures_built == [d.blocks]
    assert sts_cache[19][1] is not None
    assert len({id(g) for g in graphs}) == 19  # each truncation a fresh graph
    assert all(g._girth == 6 for g in graphs)


def test_equal_design_builds_its_own_host(sts_cache, structures_built):
    d = sts_generate(13)
    for twin in (Design(d.v, d.blocks), design_load(design_save(d))):
        assert twin == d and twin is not d
        for x in (0, 7):
            assert steiner_truncate(twin, x).adj_a == steiner_truncate(d, x).adj_a
    # two hosts per twin (one per call), one for the cached design
    assert len(structures_built) == 5
    assert sts_cache[13][0] is d


@pytest.mark.parametrize("point", [1.5, 2.0, "1", None])
def test_truncate_refuses_a_point_that_is_not_an_int(monkeypatch, structures_built, point):
    # refused before the range, the degrees or the host are looked at
    monkeypatch.setattr(designs, "truncation_degrees", lambda v, k: pytest.fail("checked"))
    with pytest.raises(DesignError) as err:
        steiner_truncate(sts_generate(13), point)
    assert str(err.value) == f"point {point!r} is not an int"
    assert structures_built == []


def test_truncate_refuses_a_wrong_block_count(structures_built):
    # v = 19 and k = 3 pass truncation_degrees, but an STS(19) has 57 blocks
    with pytest.raises(DesignError) as err:
        steiner_truncate(Design(19, ((0, 1, 2),)))
    assert str(err.value) == "a 2-(19, 3, 1) design has 57 blocks, got 1"
    assert structures_built == []


# Validate a one-block design on 2^20 points under a 256 MiB address-space
# limit and print its problems: C(v, 2) is 5.5e11 pairs, so a walk over them
# all runs out of memory or time.
_SPARSE_VALIDATE = """
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (2**28, 2**28))
from bbcage.designs import design_load, design_validate
print(json.dumps(design_validate(design_load("1048576 1 3\\n0 1 2\\n")).problems))
"""


def test_validate_a_sparse_design_in_time_and_memory():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", _SPARSE_VALIDATE], env=env,
                          capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stderr) == (0, "")
    uncovered = [(0, x) for x in range(3, 13)]
    assert json.loads(done.stdout) == [
        f"uncovered pairs: {uncovered}",
        "replication numbers [0, 1] are not uniform",
    ]


@pytest.mark.parametrize(
    "bad,message",
    [
        (13, "block 25 has out-of-range point index 13"),
        (-1, "block 25 has out-of-range point index -1"),
        (8, "block 25 repeats a point"),
    ],
)
def test_truncate_turns_a_bad_block_into_a_design_error(bad, message):
    d = sts_generate(13)
    assert d.blocks[-1] == (7, 8, 10)
    broken = Design(13, d.blocks[:-1] + ((7, 8, bad),))
    with pytest.raises(ValueError, match=message):
        IncidenceStructure([None] * 13, broken.blocks)
    with pytest.raises(DesignError) as err:
        steiner_truncate(broken, 0)
    assert str(err.value) == message
