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


def _init_imports():
    """Names that ``__init__.py`` binds by relative ``from .module import``."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [a.asname or a.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names]


def test_all_matches_the_package_imports():
    # a deletion that leaves a stale import or export behind fails here
    import rotospin

    exported = rotospin.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == set(_init_imports())
    assert all(hasattr(rotospin, name) for name in exported)
