import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import holds_only_adj_a_and_invariants

from bbcage import cli, deletions, designs, polygons, prune
from bbcage.cli import main
from bbcage.graphs import from_dimacs, from_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh_hosts():
    """Clear the cached host polygons and triple systems: levi stores each
    host's graph, and so its measured invariants, on the structure, so a
    test that counts the measurements or builds of a host or a triple
    system builds it afresh."""
    for build in (polygons.gq_q4, polygons.gq_q5, polygons.split_cayley_hexagon):
        build.cache_clear()
    designs._sts_cache.clear()


# A slice of the sweep of small invocations: each family's smallest accepted
# parameters, then the refused ones just below them and the first refused
# above them (a non-prime-power q, a cap, or a degree out of range)
_SWEEP = {
    "q4": (["--q", "2"], ["--q", "1"], ["--q", "6"]),
    "q5": (["--q", "2"], ["--q", "1"], ["--q", "6"]),
    "hexagon": (["--q", "2"], ["--q", "1"], ["--q", "4"]),
    "hexagon-hyperbolic-prune": (["--q", "2"], ["--q", "1"], ["--q", "4"]),
    "q4-hyperbolic-prune": (["--q", "2"], ["--q", "1"], ["--q", "6"]),
    "q4-ovoid-delete": (["--q", "2"], ["--q", "1"], ["--q", "6"]),
    "q5-parabolic-prune": (["--q", "2"], ["--q", "1"], ["--q", "6"]),
    "q5-subgq-delete": (["--q", "2"], ["--q", "1"], ["--q", "6"]),
    "branch-prune": (
        ["--q", "2", "--m1", "2", "--n1", "3"],
        ["--q", "2", "--m1", "2", "--n1", "2"],
        ["--q", "2", "--m1", "2", "--n1", "4"],
    ),
    "mixed-prune": (["--q", "2"], ["--q", "1"], ["--q", "6"]),
    "t2-slab": (
        ["--q", "2", "--m1", "2", "--n1", "2"],
        ["--q", "2", "--m1", "1", "--n1", "2"],
        ["--q", "2", "--m1", "2", "--n1", "4"],
    ),
    "ag2-girth6": (
        ["--q", "2", "--m1", "2", "--n1", "2"],
        ["--q", "2", "--m1", "1", "--n1", "2"],
        ["--q", "2", "--m1", "2", "--n1", "3"],
    ),
    "steiner-cage": (["--v", "13"], ["--v", "12"], ["--v", "14"]),
}


@pytest.mark.parametrize("family", cli.FAMILIES)
def test_sweep_slice_exits_0_or_2(capsys, family):
    # exit 3 would mean a construction broke its own contract on a small
    # input; every refusal must be a ValueError that main turns into exit 2
    accepted, *refused = _SWEEP[family]
    code, out, err = run(capsys, "construct", "--family", family, *accepted)
    assert (code, err) == (0, "")
    assert json.loads(out)["family"] == family
    for params in refused:
        code, out, err = run(capsys, "construct", "--family", family, *params)
        assert (code, out) == (2, ""), params
        assert err.startswith("bbcage: error: ") and err.count("\n") == 1, err


def test_construct_cage_report(tmp_path, capsys):
    out = tmp_path / "g.g6"
    code, stdout, _ = run(
        capsys,
        "construct", "--family", "q4-hyperbolic-prune", "--q", "3",
        "--out", str(out),
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["vertices"] == 56
    assert report["girth"] == 8
    assert report["moore_bound"] == 49
    assert report["improved_lower_bound"] == 56
    assert report["cage_certified"] is True
    assert sorted(report["degrees"][0] + report["degrees"][1]) == [3, 4]
    n, edges = from_graph6(out.read_bytes())
    assert n == 56
    assert len(edges) == 96  # 24 * 4


def test_construct_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.g6", tmp_path / "b.g6"]
    reports = []
    for p in paths:
        code, stdout, _ = run(
            capsys,
            "construct", "--family", "steiner-cage", "--v", "13",
            "--out", str(p),
        )
        assert code == 0
        reports.append(stdout)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["vertices"] == 32


def test_construct_report_file(tmp_path, capsys):
    rpt = tmp_path / "r.json"
    code, stdout, _ = run(
        capsys,
        "construct", "--family", "t2-slab", "--q", "5", "--m1", "3", "--n1", "4",
        "--report", str(rpt),
    )
    assert code == 0 and stdout == ""
    report = json.loads(rpt.read_text())
    assert report["vertices"] == 175
    assert report["girth"] == 8


def test_construct_dimacs_and_verify(tmp_path, capsys):
    out = tmp_path / "g.dimacs"
    code, _, _ = run(
        capsys,
        "construct", "--family", "q4", "--q", "2",
        "--out", str(out), "--format", "dimacs",
    )
    assert code == 0
    n, edges = from_dimacs(out.read_bytes())
    assert n == 30 and len(edges) == 45
    code, stdout, _ = run(
        capsys, "verify", "--in", str(out), "--expect-girth", "8"
    )
    assert code == 0
    assert json.loads(stdout)["girth"] == 8


def test_construct_ag2_family(capsys):
    code, stdout, _ = run(
        capsys,
        "construct", "--family", "ag2-girth6", "--q", "5", "--m1", "3", "--n1", "4",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["vertices"] == 35
    assert report["girth"] == 6


def test_internal_assertion_exit3(capsys, monkeypatch):
    from bbcage.graphs import ConstructionError

    def boom(family, q):
        raise ConstructionError("violated invariant: synthetic")

    monkeypatch.setattr(deletions, "construct_named", boom)
    code, _, err = run(capsys, "construct", "--family", "q4-ovoid-delete", "--q", "2")
    assert code == 3
    assert "violated invariant" in err


def test_other_runtime_errors_are_not_assertions(monkeypatch):
    # only a ConstructionError exits 3; any other RuntimeError is a bug
    def boom(family, q):
        raise RuntimeError("not a contract")

    monkeypatch.setattr(deletions, "construct_named", boom)
    with pytest.raises(RuntimeError, match="not a contract"):
        main(["construct", "--family", "q4-ovoid-delete", "--q", "2"])
    assert gc.isenabled()


@pytest.fixture
def collector_state():
    """Restores the cyclic collector's state after a test that sets it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "argv,exit_code",
    [
        (["construct", "--family", "q4", "--q", "2"], 0),
        (["construct", "--family", "hexagon", "--q", "5"], 2),
        (["construct", "--family", "q4-ovoid-delete", "--q", "2"], 3),
    ],
)
def test_main_restores_the_collector(
    capsys, monkeypatch, collector_state, enabled, argv, exit_code
):
    # the command runs with the collector paused; its caller's state returns
    from bbcage.graphs import ConstructionError

    def boom(family, q):
        assert not gc.isenabled()
        raise ConstructionError("violated invariant: synthetic")

    monkeypatch.setattr(deletions, "construct_named", boom)
    (gc.enable if enabled else gc.disable)()
    assert run(capsys, *argv)[0] == exit_code
    assert gc.isenabled() is enabled


@pytest.mark.parametrize(
    "small,large",
    [
        (["construct", "--family", "q4", "--q", "2"], ["construct", "--family", "q4", "--q", "3"]),
        (["construct", "--family", "q5", "--q", "3"], ["construct", "--family", "q5", "--q", "4"]),
        (
            ["construct", "--family", "t2-slab", "--q", "5", "--m1", "3", "--n1", "3"],
            ["construct", "--family", "t2-slab", "--q", "7", "--m1", "3", "--n1", "3"],
        ),
        # exit 2: a q past the quadrangle cap
        (["construct", "--family", "q4", "--q", "6"], ["construct", "--family", "q4", "--q", "7"]),
    ],
)
def test_cyclic_garbage_does_not_grow_with_the_graph(capsys, collector_state, small, large):
    # pausing the collector is safe only while no per-vertex structure forms
    # a cycle: what gc.collect finds after a command is the command line's,
    # the same at two sizes of one family
    def garbage(argv):
        gc.collect()
        gc.disable()
        code = main(argv)
        found = gc.collect()
        capsys.readouterr()
        return code, found

    assert garbage(small) == garbage(large)


def test_named_builders_are_looked_up_when_called(monkeypatch):
    # rebind each builder wherever a bbcage module binds it by name, as a
    # tracer wrapping the package from outside does: the named deletions and
    # the CLI hosts must call what is bound now, not what was bound at import
    called = []
    for name in ("gq_q4", "gq_q5", "split_cayley_hexagon", "ovoid_hyperplane"):
        real = getattr(polygons, name)

        def rebound(field, real=real, name=name):
            called.append(name)
            return real(field)

        for modname, mod in list(sys.modules.items()):
            if modname == "bbcage" or modname.startswith("bbcage."):
                for attr, obj in list(vars(mod).items()):
                    if obj is real:
                        monkeypatch.setattr(mod, attr, rebound)
    want = {
        "q4-hyperbolic-prune": ["gq_q4"],
        "q5-parabolic-prune": ["gq_q5"],
        "q5-subgq-delete": ["gq_q5"],
        "hexagon-hyperbolic-prune": ["split_cayley_hexagon"],
        # the host, then the ovoid search, which builds the host again
        # unless its cache already holds the answer
        "q4-ovoid-delete": ["gq_q4", "ovoid_hyperplane"],
    }
    assert sorted(want) == sorted(deletions.NAMED_FAMILIES)
    for family, names in want.items():
        called.clear()
        deletions.construct_named(family, 2)
        assert list(dict.fromkeys(called)) == names
    for host in cli.HOSTS:
        called.clear()
        cli._host_graph(host, 2)
        assert called == [polygons.HOSTS[host]]


def test_families_literal_matches_the_builders():
    # FAMILIES is a literal so that --help imports no construction module
    assert cli.HOSTS == tuple(polygons.HOSTS)
    assert cli.FAMILIES == (
        *cli.HOSTS,
        *sorted(deletions.NAMED_FAMILIES),
        "branch-prune",
        "mixed-prune",
        "t2-slab",
        "ag2-girth6",
        "steiner-cage",
    )


def test_construct_cap_exit2(capsys):
    code, _, err = run(capsys, "construct", "--family", "hexagon", "--q", "5")
    assert code == 2
    assert "error" in err


def test_construct_huge_prime_q_exit2(capsys):
    # 2^61 - 1 is prime: the cap is checked before q is factored
    code, _, err = run(
        capsys,
        "construct", "--family", "ag2-girth6", "--q", "2305843009213693951",
        "--m1", "2", "--n1", "2",
    )
    assert code == 2
    assert "exceeds cap" in err


def test_construct_field_over_the_table_cap_exit2(capsys):
    # GF(1024) has no tables, so no Field: refused before the GQ's own cap
    code, stdout, err = run(capsys, "construct", "--family", "q5", "--q", "1024")
    assert (code, stdout) == (2, "")
    assert err == "bbcage: error: field order 1024 exceeds cap 512\n"


@pytest.mark.parametrize("family", ["mixed-prune", "branch-prune"])
def test_construct_auto_edge_on_hexagon_exit2(capsys, family):
    code, stdout, err = run(
        capsys,
        "construct", "--family", family, "--host", "hexagon", "--q", "3",
        "--m1", "2", "--n1", "3", "--edge", "auto",
    )
    assert code == 2
    assert stdout == ""
    assert "not a quadrangle" in err


def test_construct_missing_param_exit2(capsys):
    code, _, _ = run(capsys, "construct", "--family", "steiner-cage")
    assert code == 2


def test_construct_bad_family_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--family", "nope", "--q", "2"])
    assert exc.value.code == 2


def test_construct_branch_prune_auto_edge(capsys):
    code, stdout, _ = run(
        capsys,
        "construct", "--family", "branch-prune", "--q", "4",
        "--m1", "3", "--n1", "4", "--edge", "auto",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["vertices"] == 7 * 16
    assert report["girth"] == 8


def test_branch_prune_auto_edge_searches_host_girth_once(tmp_path, capsys, girth_searches):
    # find_free_edge reads the host's girth from the CLI's own Levi graph, so
    # Levi(Q(4, 4)) is searched once and the pruned graph once
    fresh_hosts()
    graph, report = tmp_path / "g.g6", tmp_path / "r.json"
    code, _, _ = run(
        capsys,
        "construct", "--family", "branch-prune", "--host", "q4", "--q", "4",
        "--m1", "3", "--n1", "4", "--edge", "auto",
        "--out", str(graph), "--report", str(report),
    )
    assert code == 0
    assert [(g.n_a, g.n_b) for g in girth_searches] == [(85, 85), (48, 64)]
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (graph, report)] == [
        "c3aa5262b10a79e66b692b21f8eccaa668810b0f4ad1149a9be5c8e929232151",
        "32a63b6e6d4babfc9b2a3e4aba15fa56eae5f1ec5da927ad507f3800c08e9cba",
    ]


def test_construct_mixed_prune(capsys):
    code, stdout, _ = run(
        capsys, "construct", "--family", "mixed-prune", "--q", "2", "--host", "hexagon"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["vertices"] == 80
    assert report["girth"] == 12


def test_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "g.g6"
    run(capsys, "construct", "--family", "q4-hyperbolic-prune", "--q", "3",
        "--out", str(out))
    code, stdout, _ = run(
        capsys, "verify", "--in", str(out), "--expect-girth", "8",
        "--expect-m", "3", "--expect-n", "4",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["vertices"] == 56
    assert report["expectation_failures"] == []


def test_verify_expectation_mismatch(tmp_path, capsys):
    from bbcage.designs import sts_generate
    from bbcage.graphs import levi, to_graph6
    from bbcage.incidence import IncidenceStructure

    out = tmp_path / "heawood.g6"
    out.write_bytes(to_graph6(levi(IncidenceStructure(range(7), sts_generate(7).blocks))))
    code, stdout, _ = run(capsys, "verify", "--in", str(out), "--expect-girth", "8")
    assert code == 1
    assert json.loads(stdout)["expectation_failures"]


def test_verify_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"\x01\x02gibberish\n")
    code, _, err = run(capsys, "verify", "--in", str(bad))
    assert code == 2


@pytest.mark.parametrize(
    "name,data",
    [
        ("truncated-size.g6", b"~A\n"),
        ("negative-order.dimacs", b"p edge -2 0\n"),
        ("missing-edges.dimacs", b"p edge 4 9\ne 1 2\n"),
        ("short-edge.dimacs", b"p edge 2 1\ne 1\n"),
        ("non-ascii.g6", b"\xff\xfe\n"),
        ("non-ascii.dimacs", b"p edge 2 1\ne 1 \xb2\n"),
        ("c-prefix.dimacs", b"cfoo\np edge 2 1\ne 1 2\n"),
        ("huge-order.dimacs", b"p edge 30000000 0\n"),
    ],
)
def test_verify_malformed_exit2(tmp_path, capsys, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    code, stdout, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert stdout == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("bbcage: error: ")


def test_verify_searches_girth_once(tmp_path, capsys, girth_searches):
    from bbcage.gf import field_new
    from bbcage.graphs import levi, to_graph6
    from bbcage.polygons import gq_q4

    path = tmp_path / "q43.g6"
    path.write_bytes(to_graph6(levi(gq_q4(field_new(3, 1)))))
    code, stdout, _ = run(capsys, "verify", "--in", str(path), "--expect-girth", "8")
    assert code == 0
    assert json.loads(stdout)["girth"] == 8
    assert len(girth_searches) == 1


@pytest.mark.parametrize(
    "argv,shapes",
    [
        # at (24, 32) the deletion's output; the host Q(4, 3) is never measured
        (["--family", "q4-hyperbolic-prune", "--q", "3"], [(24, 32)]),
        (["--family", "mixed-prune", "--host", "q5", "--q", "4"], [(325, 1105), (256, 1088)]),
        # H(3) is measured when split_cayley_hexagon checks its contract, then
        # the output
        (["--family", "hexagon-hyperbolic-prune", "--q", "3"], [(364, 364), (234, 312)]),
        # the checked H(3) is the reported graph
        (["--family", "hexagon", "--q", "3"], [(364, 364)]),
        # the host H(2) once, then the prune
        (["--family", "mixed-prune", "--host", "hexagon", "--q", "2"], [(63, 63), (32, 48)]),
    ],
)
def test_construct_measures_degrees_once_per_graph(capsys, degree_measures, argv, shapes):
    fresh_hosts()
    code, _, _ = run(capsys, "construct", *argv)
    assert code == 0
    assert [(g.n_a, g.n_b) for g in degree_measures] == shapes
    assert len(set(map(id, degree_measures))) == len(shapes)


@pytest.mark.parametrize(
    "argv,searches",
    [
        (["construct", "--family", "hexagon", "--q", "3"], 1),
        (["construct", "--family", "mixed-prune", "--host", "hexagon", "--q", "2"], 2),
        # Q(4,2) and its prune, H(2) and its prune
        (["table", "--q", "2"], 4),
    ],
)
def test_each_graph_is_searched_once(capsys, monkeypatch, girth_searches, argv, searches):
    from bbcage.graphs import BipartiteGraph

    built = []
    init = BipartiteGraph.__init__

    def recording(g, *args):
        built.append(g)
        init(g, *args)

    monkeypatch.setattr(BipartiteGraph, "__init__", recording)
    fresh_hosts()
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(girth_searches) == searches
    assert len(set(map(id, girth_searches))) == searches
    # no graph the command built holds an adjacency afterwards
    assert {id(g) for g in girth_searches} <= set(map(id, built))
    assert [g for g in built if not holds_only_adj_a_and_invariants(g)] == []


def test_broken_hexagon_exit3(capsys, monkeypatch):
    from bbcage import polygons

    perp_lines = polygons.perp_lines
    monkeypatch.setattr(polygons, "perp_lines", lambda perps: perp_lines(perps)[1:])
    fresh_hosts()  # a refused build is not cached
    code, stdout, err = run(capsys, "construct", "--family", "hexagon", "--q", "2")
    assert code == 3
    assert stdout == ""
    assert err == "bbcage: assertion failed: violated invariant: hexagon order 125 != 126\n"


def test_verify_measures_degrees_once(tmp_path, capsys, degree_measures):
    from bbcage.gf import field_new
    from bbcage.graphs import levi, to_graph6
    from bbcage.polygons import gq_q4

    path = tmp_path / "q43.g6"
    path.write_bytes(to_graph6(levi(gq_q4(field_new(3, 1)))))
    code, _, _ = run(capsys, "verify", "--in", str(path), "--expect-m", "4")
    assert code == 0
    assert [(g.n_a, g.n_b) for g in degree_measures] == [(40, 40)]


def test_verify_irregular_reports_without_bounds(tmp_path, capsys):
    from bbcage.graphs import BipartiteGraph, to_graph6

    g = BipartiteGraph(2, 2, [[0, 1], [0]])
    path = tmp_path / "p.g6"
    path.write_bytes(to_graph6(g))
    code, stdout, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0
    report = json.loads(stdout)
    assert "moore_bound" not in report
    assert report["degrees"]


def test_bounds_command(capsys):
    code, stdout, _ = run(capsys, "bounds", "--m", "3", "--n", "4", "--girth", "8")
    assert code == 0
    data = json.loads(stdout)
    assert data["moore_bound"] == 49
    assert data["improved_lower_bound"] == 56
    code, stdout, _ = run(capsys, "bounds", "--m", "3", "--n", "5", "--girth", "6")
    assert json.loads(stdout)["improved_lower_bound"] == 32
    code, _, _ = run(capsys, "bounds", "--m", "5", "--n", "3", "--girth", "8")
    assert code == 2


def test_bounds_refuses_a_huge_girth_at_once(capsys):
    # the series would run for many seconds and then print a number of more
    # digits than the interpreter converts by default
    start = time.perf_counter()
    code, stdout, err = run(capsys, "bounds", "--m", "3", "--n", "4", "--girth", "2000000")
    assert time.perf_counter() - start < 1
    assert (code, stdout) == (2, "")
    assert err == "bbcage: error: girth 2000000 is over the cap of 1048576\n"
    code, stdout, err = run(capsys, "bounds", "--m", "3", "--n", "4", "--girth", "2784")
    assert (code, stdout) == (2, "")
    assert err == "bbcage: error: the bounds for (3, 4; 2784) may need 2102 bits, over the cap of 2100\n"


@pytest.mark.parametrize("girth", [2782, 2780])
def test_bounds_near_the_cap_ignore_the_digit_limit(girth):
    # the largest girths accepted for (3, 4) print the same bytes with the
    # interpreter's digit limit at its default, off, and at its least
    src = Path(__file__).resolve().parents[1] / "src"
    outs = set()
    for limit in (None, "0", "640"):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = str(src)
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        done = subprocess.run(
            [sys.executable, "-m", "bbcage.cli", "bounds", "--m", "3", "--n", "4", "--girth", str(girth)],
            env=env, capture_output=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        outs.add(done.stdout)
    (out,) = outs
    assert len(str(json.loads(out)["improved_lower_bound"])) > 500


def test_table_refuses_a_q_that_is_no_prime_power(capsys):
    code, stdout, err = run(capsys, "table", "--q", "2", "--q", "6")
    assert code == 2
    assert stdout == ""
    assert err == "bbcage: error: 6 is not a prime power\n"


def test_table_command(capsys):
    code, stdout, _ = run(capsys, "table", "--q", "2", "--q", "3")
    assert code == 0
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    assert len(lines) == 1 + 14  # header + 7 rows per q
    assert any("measured-ok" in ln for ln in lines)
    assert not any("measured-MISMATCH" in ln for ln in lines)


@pytest.mark.parametrize(
    "argv,vertices",
    [
        (["--family", "t2-slab", "--q", "3", "--m1", "2", "--n1", "2"], 36),
        (["--family", "ag2-girth6", "--q", "7", "--m1", "3", "--n1", "4"], 49),
    ],
)
def test_verify_graph6_whose_size_byte_is_c_or_p(tmp_path, capsys, argv, vertices):
    # graph6 writes 36 vertices as "c" and 49 as "p", the DIMACS line tags
    out = tmp_path / "g.g6"
    code, stdout, _ = run(capsys, "construct", *argv, "--out", str(out))
    assert code == 0
    built = json.loads(stdout)
    assert built["vertices"] == vertices
    assert out.read_bytes()[:1] == (b"c" if vertices == 36 else b"p")
    code, stdout, err = run(
        capsys, "verify", "--in", str(out), "--expect-girth", str(built["girth"])
    )
    assert (code, err) == (0, "")
    report = json.loads(stdout)
    assert report["vertices"] == vertices
    assert report["girth"] == built["girth"]
    assert report["expectation_failures"] == []


@pytest.mark.parametrize(
    "expect,code",
    [
        (["--expect-m", "3", "--expect-n", "4"], 0),
        (["--expect-m", "4", "--expect-n", "3"], 0),
        (["--expect-m", "4"], 0),
        (["--expect-n", "3"], 0),
        (["--expect-m", "3", "--expect-n", "3"], 1),
        (["--expect-m", "4", "--expect-n", "4"], 1),
        (["--expect-m", "5"], 1),
    ],
)
def test_verify_degree_expectations(tmp_path, capsys, expect, code):
    # the (3, 4; 8) cage: both expectations name the degree pair, one names a
    # member of it
    out = tmp_path / "g.g6"
    run(capsys, "construct", "--family", "q4-hyperbolic-prune", "--q", "3",
        "--out", str(out))
    got, stdout, _ = run(capsys, "verify", "--in", str(out), *expect)
    assert got == code
    assert bool(json.loads(stdout)["expectation_failures"]) == bool(code)


def test_verify_girth4_biregular_dimacs(tmp_path, capsys):
    # K_{3,3}: biregular with girth 4, below the domain of the order bounds
    path = tmp_path / "k33.dimacs"
    edges = "".join(f"e {a} {b}\n" for a in (1, 2, 3) for b in (4, 5, 6))
    path.write_bytes(("c K_{3,3}\np edge 6 9\n" + edges).encode("ascii"))
    code, stdout, err = run(capsys, "verify", "--in", str(path), "--expect-girth", "4")
    assert (code, err) == (0, "")
    report = json.loads(stdout)
    assert report["girth"] == 4
    assert report["degrees"] == [[3], [3]]
    assert report["diameter"] == 2 and report["connected"] is True
    assert "moore_bound" not in report
    assert report["expectation_failures"] == []


def test_verify_disconnected_reports_no_diameter(tmp_path, capsys):
    # two disjoint 6-cycles: connectivity comes from the diameter search
    path = tmp_path / "two-hexagons.dimacs"
    edges = []
    for base in (0, 6):
        cycle = [base + i for i in range(6)]
        edges += [(cycle[i] + 1, cycle[(i + 1) % 6] + 1) for i in range(6)]
    text = f"p edge 12 {len(edges)}\n" + "".join(f"e {a} {b}\n" for a, b in edges)
    path.write_bytes(text.encode("ascii"))
    code, stdout, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0
    report = json.loads(stdout)
    assert report["connected"] is False
    assert report["diameter"] is None
    assert report["girth"] == 6


@pytest.mark.parametrize("edges", [b"e 1 3\ne 1 3\n", b"e 1 3\ne 3 1\n"])
def test_verify_repeated_edge_exit2(tmp_path, capsys, edges):
    path = tmp_path / "repeat.dimacs"
    path.write_bytes(b"p edge 4 2\n" + edges)
    code, stdout, err = run(capsys, "verify", "--in", str(path))
    assert (code, stdout) == (2, "")
    assert err == "bbcage: error: vertex 0 has a repeated edge\n"


class _Built(Exception):
    pass


_AG2 = ["--family", "ag2-girth6", "--q", "65521"]  # 65521 is prime
_SLAB = ["--family", "t2-slab", "--q"]
_BUILDERS = (
    (designs, "sts_generate"),
    (prune, "affine_girth6_graph"),
    (prune, "affine_slab_graph"),
)


def _never_built(*args):
    raise _Built


@pytest.mark.parametrize(
    "argv,order",
    [
        (
            ["--family", "steiner-cage", "--v", "1000000003"],
            (10**9 + 2) * (10**9 + 6) // 6,
        ),
        (["--family", "steiner-cage", "--v", "1255"], 262922),
        (_AG2 + ["--m1", "65521", "--n1", "65521"], 131042 * 65521),
        (_AG2 + ["--m1", "2", "--n1", "3"], 5 * 65521),
        (_SLAB + ["53", "--m1", "53", "--n1", "54"], 107 * 53 * 53),
        (_SLAB + ["257", "--m1", "2", "--n1", "2"], 4 * 257 * 257),
    ],
)
def test_construct_refuses_orders_verify_refuses(capsys, monkeypatch, argv, order):
    # refused from the closed-form order, before anything is generated
    for module, name in _BUILDERS:
        monkeypatch.setattr(module, name, _never_built)
    code, stdout, err = run(capsys, "construct", *argv)
    assert (code, stdout) == (2, "")
    assert err == (
        f"bbcage: error: {argv[1]} order {order} is over verify's cap of "
        f"{cli.VERIFY_MAX_ORDER}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        # the largest v = 1 (mod 6) under the cap; v = 3 (mod 6) never truncates
        ["--family", "steiner-cage", "--v", "1249"],  # order 260416
        _AG2 + ["--m1", "2", "--n1", "2"],  # order 262084
        _SLAB + ["251", "--m1", "2", "--n1", "2"],  # order 252004
    ],
)
def test_construct_builds_orders_at_the_cap(capsys, monkeypatch, argv):
    for module, name in _BUILDERS:
        monkeypatch.setattr(module, name, _never_built)
    with pytest.raises(_Built):
        main(["construct", *argv])


@pytest.mark.parametrize(
    "argv,order",
    [
        (["--family", "steiner-cage", "--v", "1249"], 260416),
        (["--family", "ag2-girth6", "--q", "7103", "--m1", "2", "--n1", "2"], 28412),
    ],
)
def test_construct_refuses_a_graph6_body_over_the_cap(tmp_path, capsys, monkeypatch, argv, order):
    # n(n-1)/12 bytes of body: refused before generating; DIMACS is not capped
    for module, name in _BUILDERS:
        monkeypatch.setattr(module, name, _never_built)
    out = tmp_path / "x.g6"
    code, stdout, err = run(capsys, "construct", *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    body = -(-order * (order - 1) // 12)
    assert err == (
        f"bbcage: error: {argv[1]} order {order} needs a graph6 body of {body} bytes, "
        f"over the cap of {cli.GRAPH6_MAX_BODY} (--format dimacs has none)\n"
    )
    assert not out.exists()
    with pytest.raises(_Built):
        main(["construct", *argv, "--out", str(out), "--format", "dimacs"])


def test_construct_builds_a_graph6_body_at_the_cap(tmp_path, monkeypatch):
    # order 28316, the largest ag2-girth6 graph6 output with m1 = n1 = 2
    monkeypatch.setattr(prune, "affine_girth6_graph", _never_built)
    argv = ["--family", "ag2-girth6", "--q", "7079", "--m1", "2", "--n1", "2"]
    with pytest.raises(_Built):
        main(["construct", *argv, "--out", str(tmp_path / "x.g6")])


def test_construct_steiner_refuses_a_bad_truncation_before_generating(capsys, monkeypatch):
    # v = 1251 = 3 (mod 6) is under the cap, but n = 624 is not -1 (mod 3)
    monkeypatch.setattr(designs, "sts_generate", _never_built)
    code, stdout, err = run(capsys, "construct", "--family", "steiner-cage", "--v", "1251")
    assert (code, stdout) == (2, "")
    assert err == "bbcage: error: needs n = -1 (mod m): n=624, m=3\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--family", "steiner-cage", "--v", "1000000000"], "no Steiner triple system"),
        (["--family", "steiner-cage", "--v", "-1000000001"], "no Steiner triple"),
        (_AG2 + ["--m1", "70000", "--n1", "3"], "only 65521 horizontal lines"),
        (_AG2 + ["--m1", "3", "--n1", "-70000"], "only 65521 non-horizontal directions"),
        (_SLAB + ["67", "--m1", "1", "--n1", "2"], "need 2 <= m1 <= 67, got 1"),
        (_SLAB + ["65521", "--m1", "0", "--n1", "2"], "need 2 <= m1 <= 65521, got 0"),
        (_SLAB + ["67", "--m1", "2", "--n1", "69"], "need 2 <= n1 <= 68 conic points"),
        # 63001 = 251^2: an order over the cap, but the field is named first
        (_SLAB + ["63001", "--m1", "251", "--n1", "252"], "needs a prime field"),
    ],
)
def test_construct_bad_parameters_keep_their_message(capsys, argv, message):
    code, stdout, err = run(capsys, "construct", *argv)
    assert (code, stdout) == (2, "")
    assert message in err
