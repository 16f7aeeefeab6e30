"""What a cold bbcage process loads: each command imports only the modules
it runs, the package resolves its exports on first access, and no command
loads dataclasses, fractions or inspect.  pytest itself imports those, so
each command runs in a fresh interpreter."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bbcage

SRC = Path(__file__).resolve().parents[1] / "src"

VERIFY_MODULES = ["bbcage", "bbcage.bounds", "bbcage.cli", "bbcage.graphs", "bbcage.incidence"]
STEINER_MODULES = [
    "bbcage", "bbcage.bounds", "bbcage.cli", "bbcage.designs", "bbcage.graphs", "bbcage.incidence",
]
AFFINE_MODULES = [
    "bbcage", "bbcage.bounds", "bbcage.cli", "bbcage.gf", "bbcage.graphs", "bbcage.incidence",
    "bbcage.prune",
]
NEVER_LOADED = ("dataclasses", "fractions", "inspect")

# Run one command line as the console script does, then write the loaded
# module names to the file named by the first argument.
_PROBE = """
import json, sys
from bbcage import cli
out, argv = sys.argv[1], sys.argv[2:]
try:
    code = cli.main(argv)
except SystemExit as exc:
    code = exc.code
with open(out, "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


def loaded(tmp_path, *argv) -> tuple[int, list[str]]:
    """(exit code, sorted sys.modules) of one fresh bbcage process."""
    out = tmp_path / "modules.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run(
        [sys.executable, "-c", _PROBE, str(out), *argv],
        cwd=tmp_path, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    result = json.loads(out.read_text())
    return result["code"], result["modules"]


def package_modules(modules) -> list[str]:
    return [m for m in modules if m == "bbcage" or m.startswith("bbcage.")]


def test_import_bbcage_loads_no_submodule(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, bbcage; print(' '.join(sorted(sys.modules)))"],
        env=env, check=True, capture_output=True, text=True,
    ).stdout.split()
    assert package_modules(out) == ["bbcage"]
    assert not set(NEVER_LOADED) & set(out)


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    from bbcage.gf import field_of_order
    from bbcage.graphs import levi, to_dimacs, to_graph6
    from bbcage.polygons import gq_q4

    d = tmp_path_factory.mktemp("graphs")
    g = levi(gq_q4(field_of_order(2)))
    (d / "g.g6").write_bytes(to_graph6(g))
    (d / "g.dimacs").write_bytes(to_dimacs(g))
    return d


@pytest.mark.parametrize("name", ["g.g6", "g.dimacs"])
def test_verify_loads_graphs_incidence_and_bounds_only(tmp_path, graph_files, name):
    code, modules = loaded(
        tmp_path, "verify", "--in", str(graph_files / name), "--expect-girth", "8"
    )
    assert code == 0
    assert package_modules(modules) == VERIFY_MODULES


def test_steiner_cage_loads_no_geometry(tmp_path):
    # the construction contract lives in graphs, so a design build loads
    # neither polygons nor projective nor gf
    code, modules = loaded(tmp_path, "construct", "--family", "steiner-cage", "--v", "13")
    assert code == 0
    assert package_modules(modules) == STEINER_MODULES


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "t2-slab", "--q", "3", "--m1", "2", "--n1", "3"],
        ["construct", "--family", "ag2-girth6", "--q", "5", "--m1", "2", "--n1", "3"],
    ],
    ids=["t2-slab", "ag2-girth6"],
)
def test_affine_families_load_no_projective_geometry(tmp_path, argv):
    # the slab's ideal plane is in closed form, so neither affine family
    # loads projective or polygons
    code, modules = loaded(tmp_path, *argv)
    assert code == 0
    assert package_modules(modules) == AFFINE_MODULES


def test_help_loads_only_the_cli(tmp_path):
    code, modules = loaded(tmp_path, "construct", "--help")
    assert code == 0
    assert package_modules(modules) == ["bbcage", "bbcage.cli"]


@pytest.mark.parametrize(
    "argv",
    [
        # the families of the construct-cold benchmark, at small q
        ["construct", "--family", "q5", "--q", "2", "--format", "dimacs", "--out", "g"],
        ["construct", "--family", "q5-subgq-delete", "--q", "2", "--out", "g"],
        ["construct", "--family", "hexagon", "--q", "2", "--out", "g"],
        ["construct", "--family", "hexagon-hyperbolic-prune", "--q", "2", "--out", "g"],
        ["construct", "--family", "mixed-prune", "--host", "q5", "--q", "2", "--out", "g"],
        ["construct", "--family", "q4-ovoid-delete", "--q", "3", "--out", "g"],
        ["construct", "--family", "q4-hyperbolic-prune", "--q", "3", "--out", "g"],
        # and the rest
        ["construct", "--family", "steiner-cage", "--v", "13"],
        ["construct", "--family", "t2-slab", "--q", "3", "--m1", "2", "--n1", "3"],
        ["construct", "--family", "ag2-girth6", "--q", "5", "--m1", "2", "--n1", "3"],
        ["construct", "--family", "branch-prune", "--q", "3", "--m1", "3", "--n1", "4"],
        ["bounds", "--m", "3", "--n", "4", "--girth", "8"],
        ["table", "--q", "2"],
    ],
)
def test_no_command_loads_dataclasses_fractions_or_inspect(tmp_path, argv):
    code, modules = loaded(tmp_path, *argv)
    assert code == 0
    assert [m for m in NEVER_LOADED if m in modules] == []


def test_exports_resolve_to_their_defining_modules():
    assert len(bbcage.__all__) == len(set(bbcage.__all__)) == 47
    assert set(bbcage.__all__) <= set(dir(bbcage))
    for name in bbcage.__all__:
        value = getattr(bbcage, name)
        module = importlib.import_module(value.__module__)
        assert module.__name__.startswith("bbcage."), name
        assert getattr(module, name) is value, name
    assert bbcage.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        bbcage.missing  # noqa: B018


def test_star_import_binds_every_export():
    namespace = {}
    exec("from bbcage import *", namespace)
    assert {name: namespace[name] for name in bbcage.__all__} == {
        name: getattr(bbcage, name) for name in bbcage.__all__
    }
