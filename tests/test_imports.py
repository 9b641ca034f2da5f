"""Every name imported by a package module or a test module is used,
every name a package module defines at module level is used somewhere,
and every public package function is reached from the package itself.

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


# Public module-level functions that no src code but their own definition
# refers to, each kept for a reason.  Every other public function must be
# reached from the package itself, not only from the tests.
SRC_UNREFERENCED = {
    # The paper's two deliberately bad baselines, compared in criterion 3.
    "engine.naive_sorted_difference",
    "engine.naive_random_difference",
    # One region's exact matrix, read by the census oracle tests.
    "smallcase.transition_matrix",
}


def src_references(trees: dict[str, ast.Module]) -> set[str]:
    """``module.name`` for every reference src code makes to a module-level
    name: a bare name in its own module (outside its own definition), a
    ``from .module import name``, or ``module.name`` on an imported module.
    Attribute names in general do not count: ``config.adjust`` is not a
    reference to a function ``adjusters.adjust``."""
    refs = set()
    for stem, tree in trees.items():
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        refs.add(f"{node.module}.{alias.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    refs.add(f"{modules[node.value.id]}.{node.attr}")
        for top in tree.body:
            names = {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names.discard(top.name)  # a recursive call is no reference
            refs.update(f"{stem}.{name}" for name in names)
    return refs


def test_every_public_function_is_referenced_by_src():
    trees = {path.stem: _parse(path) for path in PACKAGE}
    public = {
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    unreferenced = public - src_references(trees)
    assert sorted(unreferenced - SRC_UNREFERENCED) == []
    assert sorted(SRC_UNREFERENCED - unreferenced) == []  # no stale entry
