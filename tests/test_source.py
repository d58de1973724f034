"""Checks on the library's source text that no installed linter makes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rotospin"


def _unused_imports(tree):
    """Names bound by the module's top-level imports and never read."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_unused_top_level_imports():
    # __init__.py imports to re-export
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py"}
    assert len(unused) >= 9
    assert {name: names for name, names in unused.items() if names} == {}
