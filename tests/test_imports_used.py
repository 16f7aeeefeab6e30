"""Every name a runtime module imports is used in that module.  The package
__init__ (whose imports are re-exports) and __future__ imports are exempt.
Every module-level private function is referenced somewhere in the package,
and every module-level name bound by assignment is read somewhere in it.
Every public module-level function and method is named in the package or in
cagebench, other than at its own def and in the __init__ export table; only
design_load and design_save, kept for a --design FILE option, are exempt.
The text "violated invariant" appears only in graphs.expect, the one place a
construction contract fails, and ConstructionError is raised only there and
by the three searches that can come up empty.  A BipartiteGraph is constructed
only by the three builders in graphs, levi, induced_subgraph and
graph_from_edges, and by the three constructions that write their rows
directly: the two affine ones, in closed form, and the Steiner truncation,
from the blocks.  An IncidenceStructure is constructed only by the quadric
polygons, so a deletion is always an induced subgraph of its host's
incidence graph, never a rebuilt structure.  No
module imports deque: graphs.bfs_order is the one breadth-first search."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bbcage"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_detector():
    source = "from __future__ import annotations\nimport os.path\nfrom .x import y, z as w\nw()\n"
    assert unused_imports(source) == ["os (line 2)", "y (line 3)"]


def test_runtime_modules_use_every_import():
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert files
    stale = [f"{p.name}: {name}" for p in files for name in unused_imports(p.read_text())]
    assert stale == []


def unreferenced_private_functions(sources: list[str]) -> list[str]:
    """Module-level _private (not dunder) functions that no source names,
    as a bare name, an attribute or an import."""
    defined, referenced = [], set()
    for source in sources:
        tree = ast.parse(source)
        defined += [
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return [name for name in defined if name not in referenced]


def test_unreferenced_private_functions_detector():
    a = "def _used():\n    pass\ndef _dead():\n    pass\ndef __dunder__():\n    pass\n"
    b = "from .a import _imported\nx = mod._by_attr\n"
    c = "def _imported():\n    pass\ndef _by_attr():\n    pass\n_used()\n"
    assert unreferenced_private_functions([a, b, c]) == ["_dead"]


def test_private_functions_are_referenced():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_functions(sources) == []


def unreferenced_public_functions(sources: dict[str, str], users: list[str]) -> list[str]:
    """'module:name', or 'module:Class.name' for a method, for each public
    (no leading underscore) module-level function and class method of
    sources that no source in sources or users names, as a bare name, an
    attribute or an import.  A def names nothing, and neither does a string:
    a docstring mention or an export table entry is no reference."""
    defined, referenced = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            members = [(node, "")]
            if isinstance(node, ast.ClassDef):
                members = [(m, f"{node.name}.") for m in node.body]
            defined += [
                (f"{module}:{owner}{m.name}", m.name)
                for m, owner in members
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not m.name.startswith("_")
            ]
    for source in [*sources.values(), *users]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return [label for label, name in defined if name not in referenced]


def test_unreferenced_public_functions_detector():
    a = (
        'def used():\n    pass\ndef dead():\n    """Not used(), see dead."""\n'
        "def _private():\n    pass\nclass C:\n    def walk(self):\n        pass\n"
        "    def run(self):\n        pass\n    def __len__(self):\n        return 0\n"
        "used()\n"
    )
    b = "from .a import C\nC().run()\nEXPORTS = ('dead', 'walk')\n"
    c = "import bbcage as bb\nbb.imported()\n"
    d = "def imported():\n    pass\n"
    found = unreferenced_public_functions({"a": a, "b": b, "d": d}, [c])
    assert found == ["a:dead", "a:C.walk"]


def test_public_functions_are_named_where_they_run():
    # design_load and design_save wait for a --design FILE option
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    users = [p.read_text() for p in sorted((ROOT / "cagebench").glob("*.py"))]
    assert sources and users
    assert sorted(unreferenced_public_functions(sources, users)) == [
        "designs:design_load",
        "designs:design_save",
    ]


def invariant_texts(sources: dict[str, str]) -> list[str]:
    """'module:owner' for each line holding the text "violated invariant",
    where owner is the enclosing top-level function or class, or <module>."""
    found = []
    for module, source in sources.items():
        spans = [
            (node.lineno, node.end_lineno, node.name)
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        for lineno, line in enumerate(source.splitlines(), 1):
            if "violated invariant" in line:
                owner = next((n for a, b, n in spans if a <= lineno <= b), "<module>")
                found.append(f"{module}:{owner}")
    return found


def test_invariant_texts_detector():
    a = 'def expect(c):\n    raise E("violated invariant: x")\n'
    b = 'def build():\n    raise E(\n        f"violated invariant: {1}"\n    )\nX = "violated invariant"\n'
    found = invariant_texts({"polygons": a, "prune": b})
    assert found == ["polygons:expect", "prune:build", "prune:<module>"]


def test_violated_invariant_only_in_expect():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert set(invariant_texts(sources)) == {"graphs:expect"}


def construction_raises(sources: dict[str, str]) -> list[str]:
    """'module:owner' for each raise of ConstructionError (called or bare, by
    name or as an attribute), where owner is the enclosing top-level function
    or class, or <module>."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if "ConstructionError" in (
                        getattr(exc, "id", None),
                        getattr(exc, "attr", None),
                    ):
                        found.append(f"{module}:{owner}")
    return found


def test_construction_raises_detector():
    a = 'def expect(c):\n    if not c:\n        raise ConstructionError("x")\n'
    b = (
        "def search():\n    raise polygons.ConstructionError\n"
        "class C:\n    def f(self):\n        raise ConstructionError('y') from None\n"
        "def other():\n    raise ValueError('ConstructionError')\n"
        "def reraise():\n    try:\n        pass\n    except ConstructionError:\n        raise\n"
        "raise ConstructionError()\n"
    )
    found = construction_raises({"polygons": a, "prune": b})
    assert found == ["polygons:expect", "prune:search", "prune:C", "prune:<module>"]


def test_construction_errors_only_from_expect_and_exhausted_searches():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sorted(construction_raises(sources)) == [
        "graphs:expect",
        "polygons:ovoid_hyperplane",
        "prune:_girth_cycle_through",
        "prune:find_free_edge",
    ]


def unread_module_names(sources: dict[str, str]) -> list[str]:
    """'module:name' for each module-level name bound by assignment (not a
    dunder) that no source reads, as a bare name or an attribute."""
    bound, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound += [
                    f"{module}:{leaf.id}"
                    for target in targets
                    for leaf in ast.walk(target)
                    if isinstance(leaf, ast.Name) and not leaf.id.startswith("__")
                ]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    return [name for name in bound if name.split(":")[1] not in read]


def test_unread_module_names_detector():
    a = "import re\npat = re.compile(__name__)\nLIMIT: int = 3\n__all__ = []\n"
    b = "X, (Y, Z) = 1, (2, 3)\nLIMIT = 4\ndef f():\n    return X + mod.Y\n"
    c = "Z = 5\n"
    found = unread_module_names({"a": a, "b": b, "c": c})
    assert found == ["a:pat", "a:LIMIT", "b:Z", "b:LIMIT", "c:Z"]


def test_module_names_are_read():
    sources = {
        p.stem: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"
    }
    assert unread_module_names(sources) == []


def constructor_calls(cls: str, sources: dict[str, str]) -> list[str]:
    """'module:owner' for each call of cls (by name or as an attribute),
    where owner is the enclosing top-level function or class, or <module>."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and cls in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    found.append(f"{module}:{owner}")
    return found


def test_bipartite_graph_calls_detector():
    a = "def levi(s):\n    return BipartiteGraph(1, 1, [[0]])\n"
    b = (
        "from .graphs import BipartiteGraph\n"
        "def affine(p):\n    g = BipartiteGraph(\n        p, p, [])\n    return g\n"
        "class C:\n    def f(self):\n        return graphs.BipartiteGraph(0, 0, [])\n"
        "EMPTY = BipartiteGraph(0, 0, [])\n"
        "def typed(g: BipartiteGraph) -> BipartiteGraph:\n    return g\n"
    )
    found = constructor_calls("BipartiteGraph", {"graphs": a, "prune": b})
    assert found == ["graphs:levi", "prune:affine", "prune:C", "prune:<module>"]


def test_graphs_built_only_by_the_six_builders():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sorted(constructor_calls("BipartiteGraph", sources)) == [
        "designs:steiner_truncate",
        "graphs:graph_from_edges",
        "graphs:induced_subgraph",
        "graphs:levi",
        "prune:affine_girth6_graph",
        "prune:affine_slab_graph",
    ]


def test_global_adjacency_built_only_by_the_prunes():
    # a prune builds one for all its anchored searches to share; girth and
    # diameter read adj_a and its transpose, and the degree sets adj_a alone
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sorted(constructor_calls("adjacency", sources)) == [
        "prune:_anchor",
        "prune:find_free_edge",
    ]


def test_incidence_structures_built_only_by_the_quadric_polygons():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sorted(constructor_calls("IncidenceStructure", sources)) == [
        "polygons:quadric_structure",
    ]


def deque_imports(sources: dict[str, str]) -> list[str]:
    """'module' for each import of deque, from collections or as an attribute."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            if "deque" in names or getattr(node, "attr", None) == "deque":
                found.append(module)
    return found


def test_deque_imports_detector():
    a = "from collections import Counter, deque\n"
    b = "import collections\nq = collections.deque()\n"
    c = "from collections import Counter\ndequeue = 1\n"
    assert deque_imports({"a": a, "b": b, "c": c}) == ["a", "b"]


def test_one_breadth_first_search():
    # every search that needs distances or a visit order walks bfs_order
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert deque_imports(sources) == []
    assert sorted(constructor_calls("bfs_order", sources)) == [
        "graphs:graph_from_edges",
        "prune:_branches",
        "prune:_girth_cycle_through",
    ]
