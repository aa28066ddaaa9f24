"""The package's names: each star-imported module's ``__all__`` is its share,
and each module reads every name it imports.

``ttamen/__init__.py`` star-imports its modules, so a name listed in two
modules' ``__all__`` would silently bind the later module's object.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

import ttamen
import ttamen.amen

from conftest import load_tracing

MODULE_FILES = sorted(Path(ttamen.__file__).parent.glob("*.py"))


def star_imported_modules() -> list:
    """The modules that ``ttamen/__init__.py`` imports with ``*``, in order."""
    tree = ast.parse(inspect.getsource(ttamen))
    return [
        importlib.import_module(f"ttamen.{node.module}")
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]
    ]


def test_each_name_is_listed_once_and_bound_to_its_object():
    modules = star_imported_modules()
    assert modules
    owner = {}
    for module in modules:
        for name in module.__all__:
            assert name not in owner, f"{name} is in {owner[name]} and {module.__name__}"
            owner[name] = module.__name__
            assert getattr(ttamen, name) is getattr(module, name)
    public = {name for name in vars(ttamen) if not name.startswith("_")}
    submodules = {n for n in public if isinstance(getattr(ttamen, n), types.ModuleType)}
    assert public - submodules == set(owner)


def imported_names(tree: ast.Module) -> set:
    """The names a module's import statements bind (``*`` and ``__future__`` aside)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names if a.name != "*"}
    return names


@pytest.mark.parametrize("path", MODULE_FILES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text())
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    # the names bench/tracing.py wraps on ttamen.amen must stay bound there
    wrapped = set()
    if path.stem == "amen":
        tracing = load_tracing()
        patches = tracing._patches(tracing.Tracer())
        wrapped = {name for owner, name, _ in patches if owner is ttamen.amen}
    assert imported_names(tree) - read - wrapped == set()
