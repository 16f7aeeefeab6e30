"""Command-line front end: construct graph families, verify graph files,
evaluate order bounds, and print the known-polygon family table.

Exit codes: 0 success, 1 verify-expectation mismatch, 2 usage or domain
error, 3 violated mathematical assertion.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys

# Each command imports, inside its own functions, only the modules it runs,
# so a process compiles and loads no more of the package than its command
# uses: verify loads graphs, incidence and bounds and nothing else.

HOSTS = ("q4", "q5", "hexagon")  # polygons.HOSTS, a literal for --help
# the hosts, deletions.NAMED_FAMILIES sorted, then the prunes and designs;
# a literal, so that --help imports no construction module
FAMILIES = (
    "q4",
    "q5",
    "hexagon",
    "hexagon-hyperbolic-prune",
    "q4-hyperbolic-prune",
    "q4-ovoid-delete",
    "q5-parabolic-prune",
    "q5-subgq-delete",
    "branch-prune",
    "mixed-prune",
    "t2-slab",
    "ag2-girth6",
    "steiner-cage",
)


def _host_graph(host: str, q: int):
    """The Levi graph of a host polygon over GF(q), its builder looked up in
    polygons.HOSTS when called."""
    from . import polygons
    from .gf import field_of_order
    from .graphs import levi

    return levi(getattr(polygons, polygons.HOSTS[host])(field_of_order(q)))


def _build_family(args):
    fam = args.family
    if fam == "steiner-cage":
        from .bounds import girth6_bound
        from .designs import steiner_truncate, sts_generate, truncation_degrees

        _require(args.v is not None, "--v is required for steiner-cage")
        v = args.v
        if v >= 7 and v % 6 in (1, 3):  # else sts_generate names the bad v
            _require_order(args, girth6_bound(*truncation_degrees(v, 3)))
        return steiner_truncate(sts_generate(v))
    _require(args.q is not None, "--q is required")
    if fam in ("branch-prune", "t2-slab", "ag2-girth6"):
        _require(args.m1 is not None and args.n1 is not None, "--m1/--n1 required")
    if fam in ("ag2-girth6", "t2-slab"):
        from . import prune

        q, m1, n1 = args.q, args.m1, args.n1
        if fam == "ag2-girth6":
            _require_order(args, prune.affine_girth6_order(q, m1, n1))
            return prune.affine_girth6_graph(q, m1, n1)
        _require_order(args, prune.affine_slab_order(q, m1, n1))
        return prune.affine_slab_graph(q, m1, n1)
    if fam in HOSTS:
        return _host_graph(fam, args.q)
    if fam in ("branch-prune", "mixed-prune"):
        from .prune import find_free_edge, induced_branch_graph, mixed_degree_prune

        g = _host_graph(args.host, args.q)
        edge = None
        if args.edge == "auto":
            point, block = find_free_edge(g)
            edge = (point, g.n_a + block)
        if fam == "branch-prune":
            return induced_branch_graph(g, args.m1, args.n1, edge=edge)
        return mixed_degree_prune(g, edge=edge)
    from .deletions import construct_named

    return construct_named(fam, args.q)


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _require_order(args, order: int):
    """Refuse, before anything is built, an output of a closed-form order that
    verify would refuse, so construct never writes such a graph, and a graph6
    output whose body would be over GRAPH6_MAX_BODY bytes."""
    _require(
        order <= VERIFY_MAX_ORDER,
        f"{args.family} order {order} is over verify's cap of {VERIFY_MAX_ORDER}",
    )
    if args.out and args.format == "graph6":
        body = -(-order * (order - 1) // 12)
        _require(
            body <= GRAPH6_MAX_BODY,
            f"{args.family} order {order} needs a graph6 body of {body} bytes, over "
            f"the cap of {GRAPH6_MAX_BODY} (--format dimacs has none)",
        )


def _graph_report(g, family: str, params: dict) -> dict:
    from .bounds import excess_of
    from .graphs import diameter, girth

    da, db = g.degree_sets()
    diam = diameter(g)  # first: its search also stores the girth
    gi = girth(g)
    connected = diam != math.inf
    report = {
        "schema": 1,
        "family": family,
        "params": params,
        "vertices": g.n_vertices,
        "edges": g.num_edges,
        "class_sizes": [g.n_a, g.n_b],
        "degrees": [sorted(da), sorted(db)],
        "girth": None if gi == math.inf else int(gi),
        "diameter": diam if connected else None,
        "connected": connected,
    }
    # improved_bound, behind excess_of, is defined for even girth >= 6 only
    if g.degrees() is not None and 6 <= gi < math.inf:
        report.update(excess_of(g).to_dict())
    return report


def _emit(report: dict, path: str | None):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_construct(args) -> int:
    g = _build_family(args)
    params = {
        k: v
        for k, v in (
            ("q", args.q),
            ("v", args.v),
            ("m1", args.m1),
            ("n1", args.n1),
            ("host", args.host if args.family in ("branch-prune", "mixed-prune") else None),
            ("edge", args.edge if args.family in ("branch-prune", "mixed-prune") else None),
        )
        if v is not None
    }
    if args.out:
        from .graphs import to_dimacs, to_graph6

        data = to_dimacs(g) if args.format == "dimacs" else to_graph6(g)
        with open(args.out, "wb") as fh:
            fh.write(data)
    _emit(_graph_report(g, args.family, params), args.report)
    return 0


# A declared order past this cap is refused before anything is allocated.
# The cap bounds memory, not time: verify's one level search (two when the
# diameter is odd) takes one level per step of the longest distance, each
# level O(n) work per chunk of roots, so a graph of large diameter, such as a
# long cycle, costs about n^3 (verify on C_2000 0.43 s, C_4000 1.73 s, medians of
# 7 runs at commit 64473c3, CPython 3.11.7 on a shared 2-CPU Xeon; ROADMAP item 8).
VERIFY_MAX_ORDER = 2 ** 18
# A graph6 file spends n(n-1)/12 bytes on the body of an n-vertex graph, and
# to_graph6 holds two copies of it; 64 MiB of body is an order of 28,378.
GRAPH6_MAX_BODY = 2 ** 26


def _cmd_verify(args) -> int:
    from .graphs import GraphError, from_dimacs, from_graph6, graph_from_edges

    with open(args.infile, "rb") as fh:
        data = fh.read()
    # "p" and "c" are also the graph6 size bytes of 49 and 36 vertices, so
    # only a first token of exactly "p" or "c" marks a DIMACS file.
    if data.split(None, 1)[:1] in ([b"p"], [b"c"]):
        n, edges = from_dimacs(data)
    else:
        n, edges = from_graph6(data)
    if n == 0:
        raise GraphError("empty graph")
    if n > VERIFY_MAX_ORDER:
        raise GraphError(f"order {n} is over verify's cap of {VERIFY_MAX_ORDER}")
    g = graph_from_edges(n, edges)
    report = _graph_report(g, "verify", {"infile": args.infile})
    failures = []
    if args.expect_girth is not None and report["girth"] != args.expect_girth:
        failures.append(f"girth {report['girth']} != expected {args.expect_girth}")
    if args.expect_m is not None or args.expect_n is not None:
        pair = g.degrees()
        if pair is None:
            da, db = report["degrees"]
            failures.append(f"not biregular: degrees {da}/{db}")
        else:
            got = sorted(pair)
            want = sorted(x for x in (args.expect_m, args.expect_n) if x is not None)
            # both given: the degree pair in either order; one given: a member
            if (got != want) if len(want) == 2 else (want[0] not in got):
                failures.append(f"degrees {got} != expected {want}")
    report["expectation_failures"] = failures
    _emit(report, args.report)
    return 1 if failures else 0


def _cmd_bounds(args) -> int:
    from .bounds import improved_bound

    report = improved_bound(args.m, args.n, args.girth)
    sys.stdout.write(report.to_json())
    return 0


def _cmd_table(args) -> int:
    from .bounds import polygon_family_table
    from .graphs import expect
    from .prune import mixed_degree_prune

    rows = polygon_family_table(args.q)
    measured = {}
    for q in args.q:
        if q <= 3:
            g = mixed_degree_prune(_host_graph("q4", q))
            measured[("gq(q,q)", q)] = g.n_vertices
        if q == 2:
            g = mixed_degree_prune(_host_graph("hexagon", q))
            measured[("hex(q,q)", q)] = g.n_vertices
    header = (
        f"{'family':<12} {'q':>2} {'degs':>7} {'girth':>5} "
        f"{'prune':>10} {'moore':>10} {'excess':>12} flags"
    )
    sys.stdout.write(header + "\n")
    for row in rows:
        flags = []
        for col in ("prune_col", "moore_col", "excess"):
            if row.get(f"{col}_mismatch"):
                flags.append(f"{col}-mismatch")
        got = measured.get((row["family"], row["q"]))
        if got is not None:
            order = row["prune_col"] * (row["degree_small"] + row["degree_large"] - 1)
            expect(got == order, f"measured prune order {got} != {order}")
            flags.append("measured-ok")
        sys.stdout.write(
            f"{row['family']:<12} {row['q']:>2} "
            f"{row['degree_small']},{row['degree_large']:>3} {row['girth']:>5} "
            f"{row['prune_col']:>10} {row['moore_col']:>10} {row['excess']:>12} "
            f"{';'.join(flags) if flags else '-'}\n"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbcage",
        description="Construct, verify and bound bipartite biregular graphs "
        "built from finite geometries and designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a graph family and report on it")
    c.add_argument("--family", required=True, choices=FAMILIES)
    c.add_argument("--q", type=int, help="field order (prime power)")
    c.add_argument("--v", type=int, help="point count for steiner-cage")
    c.add_argument("--m1", type=int)
    c.add_argument("--n1", type=int)
    c.add_argument("--host", choices=HOSTS, default="q4", help="prune host polygon")
    c.add_argument("--edge", choices=("auto", "lex"), default="lex")
    c.add_argument("--format", choices=("graph6", "dimacs"), default="graph6")
    c.add_argument("--out", help="graph output path")
    c.add_argument("--report", help="JSON report path (stdout when omitted)")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="measure a graph file and check expectations")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--expect-m", type=int)
    v.add_argument("--expect-n", type=int)
    v.add_argument("--expect-girth", type=int)
    v.add_argument("--report", help="JSON report path (stdout when omitted)")
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bounds", help="evaluate order bounds for (m, n; girth)")
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--girth", type=int, required=True)
    b.set_defaults(func=_cmd_bounds)

    t = sub.add_parser("table", help="print the known-polygon family table")
    t.add_argument("--q", type=int, action="append", required=True)
    t.set_defaults(func=_cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The cyclic collector is paused for the command: bbcage's per-vertex
    # lists form no cycles, yet their allocation sets it off, and it took a
    # fifth to a third of verify's time on 2^17 disjoint edges.  The caller's
    # state is restored, so the library and in-process callers are unchanged.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # every domain error class (FieldError, GeometryError, GraphError,
        # DesignError, BoundsError) subclasses ValueError
        print(f"bbcage: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # ConstructionError, imported only here: a command that never loads
        # graphs cannot raise it
        from .graphs import ConstructionError

        if not isinstance(exc, ConstructionError):
            raise
        print(f"bbcage: assertion failed: {exc}", file=sys.stderr)
        return 3
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
