"""Every name imported by a package module or a test module is used, and
every name a package module defines at module level is used somewhere.

No linter is part of the toolchain, so these AST scans stand in for one.
``__init__.py`` is skipped by the import scan: its imports are the
re-exported package API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "deconvsim").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"] + TESTS


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(_parse(path)) == []


def module_level_names(tree: ast.Module) -> list[str]:
    """Names a module binds at top level by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def loaded_names(tree: ast.Module) -> set[str]:
    """Names a module reads: by name, as an attribute, or by import."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            loaded.update(alias.name for alias in node.names)
    return loaded


def test_every_module_level_name_is_used():
    loaded = set().union(*(loaded_names(_parse(p)) for p in PACKAGE + TESTS))
    unused = [
        f"{path.stem}.{name}"
        for path in PACKAGE
        for name in module_level_names(_parse(path))
        if name not in loaded
    ]
    assert unused == []
