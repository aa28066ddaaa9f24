"""The package's names: each star-imported module's ``__all__`` is its share,
and each module, demo and test file reads every name it imports.

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
ROOT = Path(__file__).resolve().parents[1]
SCRIPT_FILES = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("tests/*.py"))


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
    owner, named = {}, {}
    for module in modules:
        for name in module.__all__:
            assert name not in owner, f"{name} is in {owner[name]} and {module.__name__}"
            owner[name] = module.__name__
            assert getattr(ttamen, name) is getattr(module, name)
            # one name per object: a second name is a second way to say it
            other = named.setdefault(id(getattr(module, name)), name)
            assert other == name, f"{other} and {name} name one object"
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


@pytest.mark.parametrize(
    "path",
    MODULE_FILES + SCRIPT_FILES,
    ids=lambda p: p.name if p in MODULE_FILES else f"{p.parent.name}/{p.name}",
)
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


# public names that only the tests read, kept on purpose
UNREAD_EXPORTS = {
    "assemble_local",  # README names it as the way to inspect a local system
    "ttmat_random",  # tests/test_acceptance.py imports it
    "ttmat_transpose",  # tests/test_acceptance.py imports it
    "ttmat_matmul",  # tests/test_acceptance.py imports it
}


def _reads(tree: ast.Module) -> set:
    """The names code reads: ``Name`` and ``Attribute`` loads and string
    constants, outside the ``__all__`` list and the read name's own
    ``def`` or ``class``."""
    reads = set()

    def visit(node, inside: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in inside:
            reads.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return reads


def test_every_public_name_is_read_outside_the_tests():
    # bench/workloads.py looks its solvers up by string, hence the constants
    paths = MODULE_FILES + sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py"))
    read = set().union(*(_reads(ast.parse(path.read_text())) for path in paths))
    exported = {name for module in star_imported_modules() for name in module.__all__}
    assert exported - read - UNREAD_EXPORTS == set()
    assert UNREAD_EXPORTS <= exported


# defaulted parameters that no call outside the tests passes, kept on purpose:
# dmrg_solve shares amen_solve's signature, and the CLI's SOLVERS table and
# the benchmark call it through a name they look up, with no start iterate
UNSET_DEFAULTS = {("dmrg_solve", "x0")}


def _passes(call: ast.Call, param: inspect.Parameter, position: int) -> bool:
    """Whether ``call`` may set ``param``, the parameter at ``position``: by
    keyword, by position, or through ``*`` or ``**``."""
    if any(keyword.arg in (param.name, None) for keyword in call.keywords):
        return True
    if param.kind is not param.POSITIONAL_OR_KEYWORD:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_default_is_set_outside_the_tests():
    # a parameter that no caller sets is a constant; a call counts where its
    # callee has the function's name, plain or as an attribute.
    # The classes that check their settings in __post_init__ count too, with
    # their constructor's parameters
    paths = MODULE_FILES + sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py"))
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
    exported = {name: getattr(m, name) for m in star_imported_modules() for name in m.__all__}
    unset = set()
    for name, function in exported.items():
        checked = inspect.isclass(function) and "__post_init__" in vars(function)
        if name in UNREAD_EXPORTS or not (inspect.isfunction(function) or checked):
            continue
        for position, param in enumerate(inspect.signature(function).parameters.values()):
            if param.default is not param.empty and not any(
                _passes(call, param, position) for call in calls.get(name, [])
            ):
                unset.add((name, param.name))
    assert unset == UNSET_DEFAULTS


def _dotted(node) -> str:
    """``np.linalg.qr`` for the expression of that name, else ``""``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


FACTORIZATIONS = {f"{np}.linalg.{f}" for np in ("np", "numpy") for f in ("qr", "svd")}


@pytest.mark.parametrize("path", MODULE_FILES, ids=lambda p: p.name)
def test_factorizations_run_through_the_kernel(path):
    # every dense QR and SVD goes through tt._qr/tt._svd, which call numpy's
    # LAPACK gufuncs themselves; no module is exempt
    tree = ast.parse(path.read_text())
    calls = [
        f"line {node.lineno}: {_dotted(node.func)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _dotted(node.func) in FACTORIZATIONS
    ]
    assert calls == []


def test_one_sweep_solves_every_local_problem():
    # one-site and two-site steps run through one sweep: a second function
    # that solves local problems would be a second sweep
    callers = set()
    for path in MODULE_FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(call, ast.Call)
                and "_solve_local_problem"
                in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
                for call in ast.walk(node)
            ):
                callers.add(f"{path.stem}.{node.name}")
    assert callers == {"amen._sweep"}
