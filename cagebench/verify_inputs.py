"""Set-up of the verify-files workload: make its graph files through the
library, in this fresh interpreter.

    python3 cagebench/verify_inputs.py DIR

Writes, for each graph in GRAPHS, ``DIR/<name>.g6`` and ``DIR/<name>.dimacs``,
and the two malformed inputs of MALFORMED.
"""

import os
import sys

# name -> (closed-form family, q, host) in closed.expected_construct terms
GRAPHS = {
    "q5-4": ("q5", 4, None),
    "q5-subgq-delete-4": ("q5-subgq-delete", 4, None),
    "hexagon-3": ("hexagon", 3, None),
    "mixed-prune-q5-4": ("mixed-prune", 4, "q5"),
}

# file name -> bytes; both must end in exit 2 with a one-line error
MALFORMED = {
    "truncated-size.g6": b"~A\n",
    "negative-order.dimacs": b"p edge -2 0\n",
}


def build(name: str):
    import bbcage as bb

    if name == "q5-4":
        return bb.levi(bb.gq_q5(bb.field_of_order(4)))
    if name == "q5-subgq-delete-4":
        return bb.construct_named("q5-subgq-delete", 4)
    if name == "hexagon-3":
        return bb.levi(bb.split_cayley_hexagon(bb.field_of_order(3)))
    return bb.mixed_degree_prune(bb.levi(bb.gq_q5(bb.field_of_order(4))))


def main() -> int:
    import bbcage as bb

    out = sys.argv[1]
    os.makedirs(out, exist_ok=True)
    files = {}
    for name in GRAPHS:
        g = build(name)
        files[f"{name}.g6"] = bb.to_graph6(g)
        files[f"{name}.dimacs"] = bb.to_dimacs(g)
    files.update(MALFORMED)
    for fname, data in files.items():
        with open(os.path.join(out, fname), "wb") as fh:
            fh.write(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
