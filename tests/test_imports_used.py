"""Every name a runtime module imports is used in that module.  The package
__init__ (whose imports are re-exports) and __future__ imports are exempt."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bbcage"


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
