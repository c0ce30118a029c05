"""Every import in the package is used, every module-level private name is
referenced, and every exported name resolves."""

import ast
import subprocess
import sys
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


def _private_definitions(tree: ast.Module):
    """(name, node) of every module-level function, class or assignment
    whose name starts with a single underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(tree) -> list:
    """Names read in ``tree``: loaded names, attributes and imported names."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append(node.id)
        elif isinstance(node, ast.Attribute):
            refs.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.extend(alias.name for alias in node.names)
    return refs


def test_every_private_name_is_referenced():
    """A module-level ``_name`` that nothing else in the package reads is a
    helper a refactor left behind."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    reads = [name for tree in trees.values() for name in _references(tree)]
    dead = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            outside = reads.count(name) - _references(node).count(name)
            if outside < 1:
                dead.append(f"{module}:{node.lineno} {name}")
    assert not dead, f"private names nothing else references: {', '.join(dead)}"


def test_every_exported_name_resolves():
    missing = [name for name in danet.__all__ if not hasattr(danet, name)]
    assert not missing, f"danet.__all__ names that do not resolve: {missing}"
    assert len(set(danet.__all__)) == len(danet.__all__)


def test_importing_danet_loads_no_pool_machinery():
    # predict's thread pool and fit's worker processes import their modules
    # when they make a pool, so `import danet` does not pay for them
    code = ("import sys, danet, danet.cli; "
            "print(sorted({'multiprocessing', 'mmap', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC.parent)}, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
