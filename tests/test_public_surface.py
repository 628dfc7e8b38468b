"""The public surface stays honest: every exported name resolves, no
module under ``src/volumetrica`` imports a name it never uses, and every
module-level private name is referenced somewhere in the package outside
its own definition.

Standard library only, so the check runs wherever the test suite does.
"""

import ast
import importlib
from pathlib import Path

import pytest

import volumetrica

PACKAGE_DIR = Path(volumetrica.__file__).parent
SOURCES = sorted(PACKAGE_DIR.rglob("*.py"))


@pytest.mark.parametrize("module", ["volumetrica", "volumetrica.nn", "volumetrica.stats"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names what the module lacks: {missing}"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus the strings of ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE_DIR)))
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses (name: line): {unused}"


def _private_definitions(tree: ast.Module):
    """Each module-level private name (``_x``, not ``__x__``) with the
    statement that defines it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(tree: ast.Module, skip) -> tuple[set[str], set[str]]:
    """Names the module refers to outside the statements in ``skip``: all
    of them (read names, attributes, from-imports), and those that can
    name another module's definition (attributes, from-imports)."""
    skipped = {id(n) for stmt in skip for n in ast.walk(stmt)}
    local, foreign = set(), set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            local.add(node.id)
        elif isinstance(node, ast.Attribute):
            foreign.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            foreign.update(alias.name for alias in node.names)
    return local | foreign, foreign


def test_every_private_name_is_referenced():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    foreign = {path: _references(tree, [])[1] for path, tree in trees.items()}
    unreferenced = []
    for path, tree in trees.items():
        for name, stmt in _private_definitions(tree):
            own, _ = _references(tree, [stmt])
            elsewhere = any(name in names for other, names in foreign.items() if other != path)
            if name not in own and not elsewhere:
                unreferenced.append(f"{path.relative_to(PACKAGE_DIR)}:{stmt.lineno} {name}")
    assert not unreferenced, f"private names nothing in the package refers to: {unreferenced}"
