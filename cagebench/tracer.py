"""Per-layer tracing of ``bbcage`` from outside the package.

``install`` wraps every public function of each module, and the constructors
of its classes, in a recorder of spans (name, start, end, parent).  Every
binding of a wrapped object is replaced, in its own module and wherever it was
imported (``girth`` in ``polygons``, ``graph_girth`` in ``bounds``, the
package's re-exports), so a call through any name is seen.  The wrapper sits
outside ``lru_cache``, so a cache hit still counts as a call.

Spans stay in memory; ``layer_metrics`` turns them into per-function self
time (span minus direct child spans) and call counts.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "gf", "projective", "incidence", "polygons", "graphs",
    "deletions", "prune", "designs", "bounds", "cli",
)

# The per-layer metrics the benchmark reports (BENCHMARK.json lists the same).
REPORTED = (
    "graphs.girth", "graphs.diameter", "graphs.bfs_distances",
    "graphs.is_connected", "graphs.from_graph6", "graphs.from_dimacs",
    "graphs.bipartition", "graphs.to_graph6", "graphs.to_dimacs",
    "graphs.levi", "graphs.induced_subgraph", "graphs.bb_check",
    "projective.quadric_lines", "projective.quadric_points",
    "projective.hyperplane_section", "polygons.split_cayley_hexagon",
    "polygons.polygon_certify", "polygons.ovoid_of_q4",
    "deletions.hyperplane_delete", "deletions.delete_subquadrangle",
    "deletions.delete_points", "prune.mixed_degree_prune",
    "prune.find_free_edge", "designs.sts_generate", "designs.design_validate",
    "designs.steiner_truncate", "bounds.improved_bound", "bounds.excess_of",
    "bounds.polygon_family_table", "incidence.IncidenceStructure",
    "gf.field_of_order", "cli.main",
)
REPORTED_CALLS = (
    "graphs.girth", "graphs.diameter", "graphs.bfs_distances",
    "graphs.bipartition", "projective.quadric_lines",
    "projective.hyperplane_section", "cli.main",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1]])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced


def _targets():
    """{id(object): (qualified name, object)} for every public function and
    constructor defined in a layer module."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"bbcage.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                out.setdefault(id(obj), (f"{layer}.{attr}", obj))
            elif (
                inspect.isclass(obj)
                and "__init__" in vars(obj)
                and not dataclasses.is_dataclass(obj)
                and not issubclass(obj, BaseException)
            ):
                out.setdefault(id(obj.__init__), (f"{layer}.{attr}", obj))
    return out


def install(tracer: Tracer) -> int:
    """Wrap every target and rebind it everywhere; returns the target count."""
    targets = _targets()
    wrapped = {}
    for key, (name, obj) in targets.items():
        if inspect.isclass(obj):
            obj.__init__ = tracer.wrap(name, obj.__init__)
        else:
            wrapped[key] = tracer.wrap(name, obj)
    for modname, mod in list(sys.modules.items()):
        if modname != "bbcage" and not modname.startswith("bbcage."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    return len(targets)


def layer_metrics(spans) -> dict[str, tuple[float, int]]:
    """{name: (self seconds, calls)} summed over spans; self time is a span's
    duration minus that of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for (name, start, end, _), c in zip(spans, child):
        acc = out.setdefault(name, [0.0, 0])
        acc[0] += end - start - c
        acc[1] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}


def per_layer(totals: dict[str, tuple[float, int]]) -> dict[str, dict]:
    """The reported per-layer metrics, zero where a layer did no work."""
    metrics = {}
    for name in REPORTED:
        metrics[f"{name}_s"] = {"value": totals.get(name, (0.0, 0))[0], "unit": "s"}
    for name in REPORTED_CALLS:
        metrics[f"{name}_calls"] = {"value": totals.get(name, (0.0, 0))[1], "unit": "count"}
    for layer in LAYERS:
        self_s = sum(v[0] for k, v in totals.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.all_s"] = {"value": self_s, "unit": "s"}
    return metrics


def merge(into: dict, more: dict):
    for k, (s, c) in more.items():
        s0, c0 = into.get(k, (0.0, 0))
        into[k] = (s0 + s, c0 + c)
