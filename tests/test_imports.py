"""Every name imported by a package module or a test module is used,
every name a package module defines at module level is used somewhere,
and every public package function is reached from the package itself.
Only ``core._sort_order`` names ``argsort``, and no module ``lexsort``.
Every setting type is defined in ``config`` and both step kernels in
``core``.  Only ``fileio.replacing`` opens a file for writing, and only
``fileio`` names it; only ``fileio.read_sample`` opens one for reading,
once.  No run loads ``concurrent.futures`` or ``logging``.

No linter is part of the toolchain, so these AST scans stand in for one.
``__init__.py`` is skipped by the import scan: its imports are the
re-exported package API.
"""

import ast
import dataclasses
import os
import subprocess
import sys
import typing
from enum import Enum
from pathlib import Path

import pytest

from deconvsim import config, core

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
# refers to, and public methods and properties of src classes that no src
# code reads, each kept for a reason.  Every other public function, method
# and property must be reached from the package itself, not only from the
# tests.
SRC_UNREFERENCED = {
    # The paper's two deliberately bad baselines, compared in criterion 3.
    "engine.naive_sorted_difference",
    "engine.naive_random_difference",
}
SRC_UNREAD_METHODS = {
    # Read only by perfbench; goes with item 11's record type.
    "engine.IterationTrace.steps",
}


def src_references(trees: dict[str, ast.Module]) -> set[str]:
    """``module.name`` for every reference src code makes to a module-level
    name: a bare name in its own module (outside its own definition), a
    ``from .module import name``, or ``module.name`` on an imported module.
    Attribute names in general do not count: ``config.adjust`` would not
    be a reference to a function ``core.adjust``."""
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


def attribute_reads(trees: dict[str, ast.Module]) -> set[str]:
    """Every name src code reads as an attribute (``obj.name``), outside
    the method of that name.  The class of ``obj`` is not known, so a read
    of the name on any object counts."""
    reads = set()
    for tree in trees.values():
        for top in tree.body:
            for scope in top.body if isinstance(top, ast.ClassDef) else [top]:
                names = {n.attr for n in ast.walk(scope) if isinstance(n, ast.Attribute)}
                if isinstance(scope, ast.FunctionDef) and scope is not top:
                    names.discard(scope.name)  # a method reading itself
                reads.update(names)
    return reads


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

    # Methods and properties (a property is a decorated method).
    reads = attribute_reads(trees)
    unread = {
        f"{stem}.{cls.name}.{node.name}"
        for stem, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in reads
    }
    assert sorted(unread - SRC_UNREAD_METHODS) == []
    assert sorted(SRC_UNREAD_METHODS - unread) == []  # no stale entry


def sort_kernel_calls(trees: dict[str, ast.Module]) -> set[str]:
    """``module.function`` (or ``module`` at module level) for every
    ``argsort`` or ``lexsort`` that src code names, as a name or an
    attribute."""
    calls = set()
    for stem, tree in trees.items():
        for top in tree.body:
            scope = f"{stem}.{top.name}" if isinstance(top, ast.FunctionDef) else stem
            for node in ast.walk(top):
                name = getattr(node, "attr", getattr(node, "id", None))
                if name in ("argsort", "lexsort"):
                    calls.add(f"{scope}.{name}")
    return calls


def test_one_ranking_kernel():
    # Both tie rules rank through core._sort_order (item 12): no module
    # calls lexsort, and argsort appears only inside that function.
    trees = {path.stem: _parse(path) for path in PACKAGE}
    assert sort_kernel_calls(trees) == {"core._sort_order.argsort"}


def _may_write(call: ast.Call) -> bool:
    """Whether a call of ``open`` may open for writing: a mode (its second
    argument, ``mode=`` or ``flags=``) that is not a constant string free
    of w, a, x and +.  A call without one reads."""
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg in ("mode", "flags")]
    return any(
        not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
        or bool(set(mode.value) & set("wax+"))
        for mode in modes
    )


def open_calls(trees: dict[str, ast.Module]) -> list[tuple[str, bool]]:
    """(``module.function`` or ``module`` at module level, whether it may
    write) for every call of ``open``, by name or as an attribute
    (``os.open``, ``Path.open``)."""
    calls = []
    for stem, tree in trees.items():
        for top in tree.body:
            scope = f"{stem}.{top.name}" if isinstance(top, ast.FunctionDef) else stem
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    if getattr(node.func, "attr", getattr(node.func, "id", None)) == "open":
                        calls.append((scope, _may_write(node)))
    return calls


def test_one_opener_of_output_files():
    # Every output file is opened by fileio.outputs through
    # fileio.replacing, so a command writes all of its files or none.  A
    # write-mode open anywhere else would be a second way to write one.
    trees = {path.stem: _parse(path) for path in PACKAGE}
    assert {scope for scope, writes in open_calls(trees) if writes} == {"fileio.replacing"}
    naming = {
        stem
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if "replacing"
        in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
    }
    assert naming == {"fileio"}


def test_one_read_of_each_sample_file():
    # fileio.read_sample opens its file once and names the faulty line from
    # the block it holds; a second read-mode open would be a second pass
    # over the file.
    trees = {path.stem: _parse(path) for path in PACKAGE}
    assert [scope for scope, writes in open_calls(trees) if not writes] == ["fileio.read_sample"]


def setting_types(cls: type) -> set[type]:
    """The enums and dataclasses that the field annotations of the
    dataclass cls name, and those of their fields in turn."""
    found, todo = set(), [cls]
    while todo:
        for hint in typing.get_type_hints(todo.pop()).values():
            for t in typing.get_args(hint) or (hint,):
                if t in found or not isinstance(t, type):
                    continue
                if dataclasses.is_dataclass(t):
                    todo.append(t)
                elif not issubclass(t, Enum):
                    continue
                found.add(t)
    return found


def test_every_setting_and_step_kernel_has_one_home():
    settings = setting_types(config.DeconvConfig)
    assert config.TieRule in settings and config.EqualizeKind in settings
    assert sorted(t.__qualname__ for t in settings if t.__module__ != config.__name__) == []
    assert {f.__module__ for f in (core._sort_order, core._repair)} == {core.__name__}


# Imports the CLI, makes one run of n values and prints which of two
# modules that a thread pool would pull in are loaded.
_LOADED_AFTER_A_RUN = """
import sys
import numpy as np
import deconvsim.cli
from deconvsim import DeconvConfig, run
x = np.random.default_rng(0).normal(size={n})
run(x, 2.0 * x, DeconvConfig(iters=5))
print(sorted(m for m in ("concurrent.futures", "logging") if m in sys.modules))
"""


@pytest.mark.parametrize("n", [100, 1024], ids=["n=100", "n=1024"])
def test_no_run_imports_concurrent_futures_or_logging(n):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_A_RUN.format(n=n)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"
