"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated time budget (run with -s to see the lines).

Criterion 4 at q = 2 is checked at the proven girth 14, not 12: every 12-cycle
of the q = 2 hexagon meets every hyperbolic hyperplane section, so the deletion
leaves the subdivided Coxeter graph.  The q = 2 tests pin this by two girth
routines, a sweep over all hyperplanes of PG(6, 2) and a networkx isomorphism.
"""

import itertools
import json
import random
import time
from collections import Counter
from types import SimpleNamespace

import pytest
from conftest import bfs_distances, brute_girth, edge_count_conserved

from bbcage.bounds import excess_of, girth6_bound, improved_bound, moore_even, polygon_family_table
from bbcage.cli import main
from bbcage.deletions import construct_named, hyperplane_delete
from bbcage.designs import steiner_truncate, sts_generate
from bbcage.gf import field_new, field_of_order
from bbcage.graphs import diameter, expect_biregular, girth, levi
from bbcage.incidence import IncidenceStructure
from bbcage.polygons import gq_q4, gq_q5, split_cayley_hexagon
from bbcage.projective import Hyperplane, hyperplane_section, pg_points
from bbcage.prune import (
    affine_girth6_graph,
    affine_slab_graph,
    induced_branch_graph,
    mixed_degree_prune,
)

F2 = field_new(2, 1)
F3 = field_new(3, 1)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self, ok=True):
        elapsed = time.monotonic() - self.start
        status = "PASS" if ok else "FAIL"
        print(f"acceptance {self.name}: {status} ({elapsed:.2f}s / {self.seconds}s)")
        assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"


def test_criterion_1_cage_reproduction(tmp_path):
    budget = Budget("1 cage reproduction", 1.0)
    out = tmp_path / "cage.g6"
    rpt = tmp_path / "cage.json"
    code = main([
        "construct", "--family", "q4-hyperbolic-prune", "--q", "3",
        "--out", str(out), "--report", str(rpt),
    ])
    assert code == 0
    report = json.loads(rpt.read_text())
    assert report["vertices"] == 56
    g = construct_named("q4-hyperbolic-prune", 3)
    adj = g.adjacency()
    deg_counts = {}
    for v in range(g.n_vertices):
        deg_counts[len(adj[v])] = deg_counts.get(len(adj[v]), 0) + 1
    assert deg_counts == {4: 24, 3: 32}
    assert report["girth"] == 8
    assert isinstance(report["diameter"], int)
    assert improved_bound(3, 4, 8).improved_lower_bound == 56
    assert report["cage_certified"] is True
    budget.done()


def test_criterion_2_bound_tables():
    budget = Budget("2 bound tables", 1.0)
    assert moore_even(3, 4, 8) == 49
    assert moore_even(2, 3, 8) == 15
    assert moore_even(3, 10, 8) == 247
    assert moore_even(3, 4, 12) == 301
    assert improved_bound(3, 4, 8).improved_lower_bound == 56
    assert improved_bound(3, 10, 8).improved_lower_bound == 260
    assert improved_bound(3, 4, 12).improved_lower_bound == 308
    budget.done()


def test_criterion_3_q5_constructions():
    budget = Budget("3 Q(5,q) constructions", 10.0)
    for q, order in ((2, 42), (3, 312)):
        g = construct_named("q5-parabolic-prune", q)
        assert g.n_vertices == order
        assert expect_biregular(g, q, q * q + 1, 8, g.n_vertices, "q5-parabolic-prune") is g
    rep = excess_of(construct_named("q5-parabolic-prune", 3))
    assert rep.order - rep.improved_lower_bound == 52  # (q^2+q+1)(q^2-q-2)
    budget.done()


def test_criterion_4_hexagon_pipeline():
    budget = Budget("4 hexagon pipeline", 120.0)
    host = levi(split_cayley_hexagon(F2))
    assert (host.n_a, host.n_b) == (63, 63)
    assert host.degrees() == (3, 3)
    assert girth(host) == 12
    assert diameter(host) == 6
    g2 = construct_named("hexagon-hyperbolic-prune", 2)
    assert g2.n_vertices == 70 == (2 * 2 + 1) * (2 ** 4 - 2)
    da, db = g2.degree_sets()
    assert {min(*da, *db), max(*da, *db)} == {2, 3}
    g3 = construct_named("hexagon-hyperbolic-prune", 3)
    assert g3.n_vertices == 546 == (2 * 3 + 1) * (3 ** 4 - 3)
    assert expect_biregular(g3, 3, 4, 12, g3.n_vertices, "hexagon-hyperbolic-prune") is g3
    budget.done()


def _smoothed(g):
    """Adjacency lists of g with every degree-2 vertex replaced by an edge
    joining its two neighbours (which must not have degree 2 themselves)."""
    adj = g.adjacency()
    keep = [v for v in range(len(adj)) if len(adj[v]) != 2]
    index = {v: i for i, v in enumerate(keep)}
    out = [[] for _ in keep]
    for nbrs in adj:
        if len(nbrs) == 2:
            a, b = (index[x] for x in nbrs)
            out[a].append(b)
            out[b].append(a)
    return out


def test_criterion_4_q2_girth_as_specified():
    """Criterion 4 at q = 2: the hexagon deletion keeps the host's girth
    2r = 12 as a lower bound, and at this boundary parameter it is exactly 14.

    Exactly 12 is unattainable at q = 2, whichever hyperbolic hyperplane is
    deleted: of the 127 hyperplanes of PG(6, 2), the 36 = q^3(q^3+1)/2
    hyperbolic ones cut H(2) in 35 points, and every one of those deletions
    has girth 14 by both the BFS routine and cycle enumeration.  Smoothing the
    42 degree-2 vertices leaves a cubic graph on 28 vertices of girth 7.
    """
    q = 2
    host = split_cayley_hexagon(F2)
    host_girth = 2 * host.tag["gonality"]
    g2 = construct_named("hexagon-hyperbolic-prune", q)
    measured, oracle = girth(g2), brute_girth(g2)
    section_sizes = Counter()
    hyperbolic_girths = Counter()
    for h in [Hyperplane(p.coords) for p in pg_points(6, F2)]:
        pts_in, _, _ = hyperplane_section(host.points, host.blocks, h, F2)
        section_sizes[len(pts_in)] += 1
        if len(pts_in) == (q * q + 1) * (q * q + q + 1):  # |Q+(5, q)| = 35
            g = hyperplane_delete(host, h)
            hyperbolic_girths[(girth(g), brute_girth(g))] += 1
    smooth = _smoothed(g2)
    smooth_girth = brute_girth(SimpleNamespace(adjacency=lambda: smooth))
    checks = {
        "girth >= 2r = 12": host_girth == 12 and measured >= host_girth,
        "girth == brute_girth == 14": measured == oracle == 14,
        "PG(6,2) sections 36x35, 63x31, 28x27": section_sizes == {35: 36, 31: 63, 27: 28},
        "girth 14 for every hyperbolic deletion": hyperbolic_girths == {(14, 14): 36},
        "smoothed graph cubic on 28 vertices": len(smooth) == 28
        and all(len(set(nbrs)) == len(nbrs) == 3 for nbrs in smooth),
        "smoothed girth 7": smooth_girth == 7,
    }
    failed = [name for name, ok in checks.items() if not ok]
    print(f"acceptance 4 (q=2 girth 14): {'FAIL' if failed else 'PASS'} "
          f"(girth {measured}, brute {oracle}, section sizes "
          f"{dict(sorted(section_sizes.items()))}, hyperbolic deletion girths "
          f"{dict(hyperbolic_girths)}, smoothed girth {smooth_girth})")
    assert not failed, f"failed: {failed}"


def test_criterion_4_q2_coxeter_graph():
    """The smoothed q = 2 hexagon deletion is the Coxeter graph: the 28
    3-subsets of a 7-set that are not lines of a Fano plane, adjacent when
    disjoint."""
    nx = pytest.importorskip("networkx")
    g2 = construct_named("hexagon-hyperbolic-prune", 2)
    assert nx.girth(nx.Graph(g2.edges())) == 14
    smooth = _smoothed(g2)
    measured = nx.Graph((u, v) for u, nbrs in enumerate(smooth) for v in nbrs)
    fano = {frozenset({i, (i + 1) % 7, (i + 3) % 7}) for i in range(7)}
    triples = [
        t for t in map(frozenset, itertools.combinations(range(7), 3)) if t not in fano
    ]
    coxeter = nx.Graph(
        (a, b) for a, b in itertools.combinations(triples, 2) if not a & b
    )
    assert coxeter.number_of_nodes() == 28 and coxeter.number_of_edges() == 42
    ok = nx.is_isomorphic(measured, coxeter)
    print(f"acceptance 4 (q=2 Coxeter graph): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_5_steiner_cages():
    budget = Budget("5 girth-6 cages", 1.0)
    g13 = steiner_truncate(sts_generate(13))
    assert g13.n_vertices == 32 == girth6_bound(3, 5)
    assert expect_biregular(g13, 3, 5, 6, g13.n_vertices, "STS(13) truncation") is g13
    assert excess_of(g13).cage_certified
    g19 = steiner_truncate(sts_generate(19))
    assert g19.n_vertices == 66 == girth6_bound(3, 8)
    assert expect_biregular(g19, 3, 8, 6, g19.n_vertices, "STS(19) truncation") is g19
    assert excess_of(g19).cage_certified
    for g in (g13, g19):
        adj = g.adjacency()
        for s in range(g.n_a):
            dist = bfs_distances(adj, s)
            far = [x for x in range(g.n_a) if x != s and dist[x] > 2]
            assert len(far) == 1
    budget.done()


def test_criterion_6_zero_excess():
    budget = Budget("6 zero excess", 1.0)
    g = construct_named("q4-hyperbolic-prune", 2)
    assert g.n_vertices == 15 == moore_even(2, 3, 8)
    rep = excess_of(g)
    assert rep.excess == 0
    assert rep.cage_certified
    budget.done()


def test_criterion_7_family_table():
    budget = Budget("7 family table", 120.0)
    rows = polygon_family_table([2, 3, 4])
    for row in rows:
        assert not row["prune_col_mismatch"]
        if row["family"] == "gq(q-1,q+1)":
            # published Moore entry is one above its tree-count evaluation for
            # every q; flagged, not forced
            assert row["moore_col_mismatch"]
            assert row["moore_col_published"] - row["moore_col"] == 1
        else:
            assert not row["moore_col_mismatch"]
        if row["family"] == "hex(q,q)":
            assert row["excess_mismatch"]  # published column is (2q+1)(q-1)
    # measured verification: edge-prune orders on the constructible rows
    for q in (2, 3):
        got = mixed_degree_prune(levi(gq_q4(field_of_order(q)))).n_vertices
        assert got == (q * q) ** 1 * (2 * q + 1)
        assert girth(mixed_degree_prune(levi(gq_q4(field_of_order(q))))) == 8
    hex_prune = mixed_degree_prune(levi(split_cayley_hexagon(F2)))
    assert hex_prune.n_vertices == 16 * 5
    assert girth(hex_prune) == 12
    budget.done()


def test_criterion_8_property_suites():
    budget = Budget("8 property suites", 120.0)
    # field axioms, 1000 random triples per field of order <= 16
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        f = field_of_order(q)
        rng = random.Random(q)
        for _ in range(1000):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    # constructed graph collection
    collection = [
        construct_named("q4-hyperbolic-prune", 2),
        construct_named("q4-hyperbolic-prune", 3),
        construct_named("q4-ovoid-delete", 2),
        construct_named("q4-ovoid-delete", 3),
        construct_named("q5-subgq-delete", 2),
        construct_named("hexagon-hyperbolic-prune", 2),
        steiner_truncate(sts_generate(13)),
        levi(IncidenceStructure(range(7), sts_generate(7).blocks)),
        induced_branch_graph(levi(gq_q4(F2)), 2, 3),
        mixed_degree_prune(levi(gq_q4(F2))),
        mixed_degree_prune(levi(gq_q5(F2))),
        affine_slab_graph(3, 2, 3),
        affine_girth6_graph(3, 2, 2),
        affine_girth6_graph(5, 3, 4),
        levi(gq_q4(F2)),
    ]
    # girth oracle equivalence on everything small enough
    for g in collection:
        if g.n_vertices <= 64:
            assert brute_girth(g) == girth(g)
    # edge-count conservation and nonnegative excess on every biregular output
    for g in collection:
        assert edge_count_conserved(g)
        assert excess_of(g).excess >= 0
    # deletion monotonicity across the named families
    hosts = {
        "q4-hyperbolic-prune": gq_q4,
        "q4-ovoid-delete": gq_q4,
        "q5-parabolic-prune": gq_q5,
        "q5-subgq-delete": gq_q5,
        "hexagon-hyperbolic-prune": split_cayley_hexagon,
    }
    ranges = {
        "q4-hyperbolic-prune": (2, 3, 4),
        "q4-ovoid-delete": (2, 3),
        "q5-parabolic-prune": (2, 3),
        "q5-subgq-delete": (2, 3),
        "hexagon-hyperbolic-prune": (2, 3),
    }
    for family, qs in ranges.items():
        for q in qs:
            host_girth = girth(levi(hosts[family](field_of_order(q))))
            assert girth(construct_named(family, q)) >= host_girth
    budget.done()


def test_criterion_9_prune_correctness():
    budget = Budget("9 prune correctness", 10.0)
    host = levi(gq_q4(F3))
    g33 = induced_branch_graph(host, 3, 3)
    assert g33.n_vertices == 6 * 9
    assert expect_biregular(g33, 3, 3, 8, g33.n_vertices, "branch prune") is g33
    g34 = induced_branch_graph(host, 3, 4)  # anchor-partner slot
    assert g34.n_vertices == 7 * 9
    assert expect_biregular(g34, 3, 4, 8, g34.n_vertices, "branch prune") is g34
    try:
        induced_branch_graph(host, 2, 3)  # order 45 over the girth-10 bound
        assert False, "(2,3) should be outside the hypothesis on Q(4,3)"
    except ValueError:
        pass
    slab = affine_slab_graph(5, 3, 4)
    assert slab.n_vertices == 175
    assert expect_biregular(slab, 3, 4, 8, slab.n_vertices, "slab") is slab
    budget.done()
