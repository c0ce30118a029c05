"""Every import in the package is used, and every exported name resolves."""

import ast
from pathlib import Path

import pytest

import danet

SRC = Path(danet.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict:
    """name -> line of every name an import statement binds, except
    ``from __future__`` ones."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in _imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports: {', '.join(unused)}"


def test_every_exported_name_resolves():
    missing = [name for name in danet.__all__ if not hasattr(danet, name)]
    assert not missing, f"danet.__all__ names that do not resolve: {missing}"
    assert len(set(danet.__all__)) == len(danet.__all__)
