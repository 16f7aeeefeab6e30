"""Show that the benchmark's checks can fail.

    python3 cagebench/selfcheck.py

Run from the root of a source checkout; takes a few seconds.  On q <= 3
inputs it confirms that the checks accept the program's real outputs and
reject a graph6 file with one bit flipped, a report with one field changed,
a construct output whose digest is not the golden one, and a hyperplane
section with one point dropped.  It also compares the bit-parallel girth and
diameter and the graph6 reader with networkx.
"""

from __future__ import annotations

import json
import shutil
import sys
from array import array

import networkx as nx

import closed
import oracle
import run


def rejects(fn, *args) -> str:
    try:
        fn(*args)
    except oracle.CheckError as exc:
        return str(exc)
    raise SystemExit(f"selfcheck: {fn.__name__} accepted a corrupted input")


def check_files(out, report, family, q):
    n, edges = oracle.read_graph(out.read_bytes())
    m = oracle.measure(n, edges)
    exp = closed.expected_construct(family, q)
    oracle.check_graph(m, exp, out.name)
    oracle.check_report(json.loads(report.read_text()), m, exp, out.name)


def main() -> int:
    directory = run.WORK / "selfcheck"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    out, report = directory / "cage.g6", directory / "cage.json"
    argv = ["construct", "--family", "q4-hyperbolic-prune", "--q", "3",
            "--out", run.rel(out), "--report", run.rel(report)]
    rc, _, _ = run.spawn(run.child_cmd(None, argv))
    if rc:
        raise SystemExit(f"selfcheck: construct exited {rc}")
    check_files(out, report, "q4-hyperbolic-prune", 3)
    print("accepts the (3,4;8) cage on 56 vertices and its report")

    good = out.read_bytes()
    flipped = bytearray(good)
    mid = len(good) // 2  # a body byte; flip its lowest bit, keeping it graph6
    flipped[mid] = ((flipped[mid] - 63) ^ 1) + 63
    out.write_bytes(bytes(flipped))
    print("rejects a flipped graph6 bit:",
          rejects(check_files, out, report, "q4-hyperbolic-prune", 3))
    out.write_bytes(good)

    rep = json.loads(report.read_text())
    rep["cage_certified"] = False
    report.write_text(json.dumps(rep))
    print("rejects a changed report field:",
          rejects(check_files, out, report, "q4-hyperbolic-prune", 3))

    golden = {"q4-hyperbolic-prune-3": {"out": "0" * 64, "report": "0" * 64}}
    cout, creport = run.construct_paths(directory, "q4-hyperbolic-prune-3")
    rc, _, _ = run.spawn(run.child_cmd(None, run.construct_argv("q4-hyperbolic-prune-3", cout, creport)))
    print("rejects an output that is not the golden one:",
          rejects(run.check_construct, "q4-hyperbolic-prune-3", cout, creport, golden))

    import bbcage as bb

    s = bb.gq_q4(bb.field_of_order(3))
    hyps = [bb.Hyperplane(p.coords) for p in bb.pg_points(4, bb.field_of_order(3))]
    res = [[array("I", x) for x in bb.hyperplane_section(s.points, s.blocks, h, s.tag["field"])]
           for h in hyps]
    coeffs = [h.coeffs for h in hyps]
    oracle.check_sections("Q(4,q)", 3, s.points, s.blocks, coeffs, res)
    res[5][0] = res[5][0][1:]
    print("rejects a section with a point dropped:",
          rejects(oracle.check_sections, "Q(4,q)", 3, s.points, s.blocks, coeffs, res))

    for g in (
        bb.levi(bb.gq_q4(bb.field_of_order(2))),
        bb.levi(bb.gq_q4(bb.field_of_order(3))),
        bb.levi(bb.split_cayley_hexagon(bb.field_of_order(2))),
        bb.construct_named("q4-ovoid-delete", 2),
        bb.construct_named("hexagon-hyperbolic-prune", 2),
        bb.steiner_truncate(bb.sts_generate(19)),
    ):
        data = bb.to_graph6(g)
        n, edges = oracle.read_graph6(data)
        ref = nx.from_graph6_bytes(data.strip())
        oracle.expect(oracle.edge_set(edges) == oracle.edge_set(ref.edges()), "graph6 reader")
        girth, diam = oracle.girth_and_diameter(n, edges)
        want = (nx.girth(ref), nx.diameter(ref))
        oracle.expect_eq((girth, diam), want, f"bit-parallel BFS on {g!r}")
        print(f"girth and diameter {want} agree with networkx on {g!r}")
    if run.malformed_outcome(2, b"bbcage: error: bad input\n") is not None:
        raise SystemExit("selfcheck: a one-line exit-2 error was not accepted")
    if run.malformed_outcome(1, b"Traceback ...\nIndexError: x\n") is None:
        raise SystemExit("selfcheck: a traceback was accepted for a malformed input")
    print("tells a one-line exit-2 error from a traceback")
    shutil.rmtree(directory)
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(run.ROOT / "src"))
    sys.exit(main())
