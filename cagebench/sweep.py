"""The library-sweep workload: one interpreter with warm caches making a
seeded draw of research-style library calls.

    python3 cagebench/sweep.py --seed N --rounds R --trace PATH|-

Set-up (import, the three polygons and their hyperplanes, the draw) ends by
printing ``ready``.  The worker then reads one line: ``quit`` ends it, ``go``
runs R rounds of the same operations, timing each library call, and prints
one JSON line with the sum of each call's fastest time, the round times, the peak RSS of this process after the rounds, the
operation counts, and the outcome of the checks, which run after the timed
rounds.  With a trace path the rounds run traced and the spans are written
there.
"""

from __future__ import annotations

import argparse
import json
from array import array
import random
import resource
import sys
import time

import bbcage as bb

import closed

# (kind, q, ambient dimension): Q(4,5) in PG(4,5), Q(5,4) in PG(5,4), H(3) in PG(6,3)
POLYGONS = (("Q(4,q)", 5, 4), ("Q(5,q)", 4, 5), ("H(q)", 3, 6))
STEINER_V = tuple(range(13, 98, 6))  # v = 1 (mod 6); v = 7 has m > n
BOUND_GRID = tuple(
    (m, n, g) for g in (6, 8, 10, 12) for m in range(2, 10) for n in range(m, 41)
)
TABLE_Q = (2, 3, 4, 5)
ROUND_TRIP_MAX = 1000  # graphs up to this order also make codec round trips


def _structure(kind: str, q: int):
    f = bb.field_of_order(q)
    if kind == "Q(4,q)":
        return bb.gq_q4(f)
    if kind == "Q(5,q)":
        return bb.gq_q5(f)
    return bb.split_cayley_hexagon(f)


class Sweep:
    """The inputs and the fixed operation list of one run."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.polygons = []
        for kind, q, d in POLYGONS:
            s = _structure(kind, q)
            hyps = [bb.Hyperplane(p.coords) for p in bb.pg_points(d, bb.field_of_order(q))]
            # one deletion per section size, the j-th hyperplane of that size
            # in sweep order, j drawn here
            picks = {u: rng.randrange(c) for u, c in sorted(closed.section_sizes(kind, q).items())}
            self.polygons.append((kind, q, s, hyps, picks))
        self.steiner = [(v, rng.randrange(v)) for v in STEINER_V]
        rng.shuffle(self.steiner)
        self.grid = list(BOUND_GRID)
        rng.shuffle(self.grid)

    def run_round(self) -> tuple[dict, list[float]]:
        """One round: its outputs, for the checks, and the wall time of each
        library call, in call order."""
        times: list[float] = []
        clock = time.perf_counter

        def call(fn, *args):
            start = clock()
            result = fn(*args)
            times.append(clock() - start)
            return result

        out = {"sections": [], "deletions": [], "steiner": [], "bounds": [], "trips": []}
        graphs = []
        for kind, q, s, hyps, picks in self.polygons:
            field = s.tag["field"]
            res = []
            seen: dict[int, int] = {}
            for h in hyps:
                # kept as machine-int arrays, so that holding a round's
                # results for the checks adds little to the peak RSS
                r = call(bb.hyperplane_section, s.points, s.blocks, h, field)
                res.append([array("I", x) for x in r])
                u = len(r[0])
                k = seen.get(u, 0)
                seen[u] = k + 1
                if picks.get(u) == k:
                    g = call(bb.hyperplane_delete, s, h)
                    rep = call(bb.excess_of, g)
                    out["deletions"].append((kind, q, u, g, rep.to_dict()))
                    graphs.append(g)
            out["sections"].append(res)
        for v, point in self.steiner:
            d = call(bb.sts_generate, v)
            g = call(bb.steiner_truncate, d, point)
            out["steiner"].append((v, point, d, g))
            graphs.append(g)
        out["bounds"] = [call(bb.improved_bound, m, n, g).to_dict() for m, n, g in self.grid]
        out["table"] = call(bb.polygon_family_table, TABLE_Q)
        for g in graphs:
            if g.n_vertices <= ROUND_TRIP_MAX:
                g6, dm = call(bb.to_graph6, g), call(bb.to_dimacs, g)
                out["trips"].append((g, g6, call(bb.from_graph6, g6), dm, call(bb.from_dimacs, dm)))
        return out, times

    def _small_orders(self):
        for kind, q, s, hyps, picks in self.polygons:
            for u in picks:
                if closed.deletion_order(kind, q, u) <= ROUND_TRIP_MAX:
                    yield u
        for v, _ in self.steiner:
            if closed.steiner_expected(v)["order"] <= ROUND_TRIP_MAX:
                yield v


def _graph_edges(g):
    import numpy as np

    return np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2)


def check_round(sweep: Sweep, out: dict) -> None:
    """Every output of a round against independent computations."""
    import oracle

    for (kind, q, s, hyps, picks), res in zip(sweep.polygons, out["sections"]):
        oracle.check_sections(kind, q, s.points, s.blocks, [h.coeffs for h in hyps], res)
    oracle.expect_eq(len(out["deletions"]), sum(len(p[4]) for p in sweep.polygons),
                     "deletions made")
    for kind, q, u, g, rep in out["deletions"]:
        what = f"{kind} q={q} deletion of a {u}-point section"
        exp = closed.deletion_expected(kind, q, u)
        m = oracle.measure(g.n_vertices, _graph_edges(g))
        oracle.expect_eq(m["classes"], exp["classes"], f"{what} classes")
        oracle.expect(m["girth"] >= 2 * exp["r"], f"{what} girth {m['girth']} < 2r")
        oracle.expect_eq(g.meta["girth"], m["girth"], f"{what} recorded girth")
        lo, hi = exp["mn"]
        want = closed.bounds_fields(lo, hi, m["girth"], m["vertices"])
        oracle.expect_eq({k: rep[k] for k in want}, want, f"{what} excess report")
    for v, point, d, g in out["steiner"]:
        oracle.check_sts(v, d.blocks)
        exp = closed.steiner_expected(v)
        m = oracle.measure(g.n_vertices, _graph_edges(g))
        oracle.check_graph(m, exp, f"truncated STS({v}) at point {point}")
    for (m, n, g), rep in zip(sweep.grid, out["bounds"]):
        want = closed.improved_bound(m, n, g)
        oracle.expect_eq({k: rep[k] for k in want}, want, f"improved_bound({m}, {n}, {g})")
        oracle.expect(rep["moore_bound"] <= rep["improved_lower_bound"],
                      f"improved_bound({m}, {n}, {g}) is below the tree bound")
    oracle.check_family_table(TABLE_Q, out["table"])
    oracle.expect_eq(len(out["trips"]), sum(1 for _ in sweep._small_orders()), "round trips")
    for g, g6, e6, dm, ed in out["trips"]:
        want = oracle.edge_set(g.edges())
        for name, (n, edges), data in (("graph6", e6, g6), ("dimacs", ed, dm)):
            oracle.expect_eq(n, g.n_vertices, f"{name} round trip order")
            oracle.expect(oracle.edge_set(edges) == want, f"{name} round trip edges")
            n2, edges2 = oracle.read_graph(data)
            oracle.expect(n2 == n and oracle.edge_set(edges2) == want,
                          f"{name} bytes decoded independently")


def same_outputs(a: dict, b: dict) -> bool:
    """Two rounds of one draw produce equal outputs."""

    def key(out):
        return (
            out["sections"],
            [(k, q, u, g.adj_a, rep) for k, q, u, g, rep in out["deletions"]],
            [(v, p, d.blocks, g.adj_a) for v, p, d, g in out["steiner"]],
            out["bounds"],
            out["table"],
            [(g6, e6, dm, ed) for _, g6, e6, dm, ed in out["trips"]],
        )

    return key(a) == key(b)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", default="-")
    args = ap.parse_args()
    sweep = Sweep(args.seed)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    t = None
    if args.trace != "-":
        import tracer

        t = tracer.Tracer()
        tracer.install(t)
    rounds, first, error = [], None, None
    for i in range(args.rounds):
        out, times = sweep.run_round()
        rounds.append(times)
        if first is None:
            first = out
        elif error is None and not same_outputs(first, out):
            error = f"round {i} outputs differ from round 0"
        del out
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"op_min_sum": sum(min(op) for op in zip(*rounds)),
              "round_s": [sum(times) for times in rounds], "peak_rss_kb": peak_kb,
              "attempted": sum(len(times) for times in rounds), "failed": 0}
    if t is not None:
        with open(args.trace, "w", encoding="ascii") as fh:
            json.dump(t.spans, fh)
    try:
        check_round(sweep, first)
    except (AssertionError, KeyError, TypeError, ValueError) as exc:
        error = error or f"{type(exc).__name__}: {exc}"
    result["error"] = error
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
