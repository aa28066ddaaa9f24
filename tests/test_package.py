"""The package's names: each star-imported module's ``__all__`` is its share.

``ttamen/__init__.py`` star-imports its modules, so a name listed in two
modules' ``__all__`` would silently bind the later module's object.
"""

import ast
import importlib
import inspect
import types

import ttamen


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
