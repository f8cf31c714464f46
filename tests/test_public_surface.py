"""The public functions, methods and properties of ``secnet`` are the ones it
runs: each is called from code in ``src/`` outside its own ``def``, or
wrapped by name in the benchmark's tracer.  A function only tests reach
belongs in ``tests/``, as a local oracle of the comparison that uses it."""

import ast
import importlib
from functools import cache
from pathlib import Path

import pytest

from test_traced_names import _load_tracer

SRC = Path(__file__).resolve().parents[1] / "src" / "secnet"

# The joint band-count optimum has no CLI output yet; it stays until one is
# added or it moves into tests/.
ALLOWED = {
    "capacity.optimize_fixed_system": "joint (N, rate) optimum, no CLI output yet",
}


def _module_name(path):
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


@cache
def _trees():
    return {_module_name(p): ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.rglob("*.py"))}


_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _owners(tree):
    """``(owner, node)``: each top-level statement under its name (``None``
    for one without), and each statement of a class body under
    ``Class.name`` for a def, else under the class's name."""
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            yield getattr(stmt, "name", None), stmt
            continue
        for node in stmt.body:
            yield (f"{stmt.name}.{node.name}" if isinstance(node, _FUNCTION)
                   else stmt.name), node


def public_functions():
    return sorted(
        f"{module}.{node.name}"
        for module, tree in _trees().items()
        for node in tree.body
        if isinstance(node, _FUNCTION) and not node.name.startswith("_")
    )


def _is_hook(module, qualname):
    """Whether the method overrides one of a base class, which calls it: a
    framework hook such as ``cli._ArgumentParser.error``, which argparse
    calls."""
    cls_name, name = qualname.split(".")
    cls = getattr(importlib.import_module(f"secnet.{module}"), cls_name)
    return any(name in vars(base) for base in cls.__mro__[1:])


def public_methods():
    """Public methods and properties of the classes in ``src/``, hooks aside."""
    return sorted(
        f"{module}.{owner}"
        for module, tree in _trees().items()
        for owner, node in _owners(tree)
        if isinstance(node, _FUNCTION) and "." in owner
        and not node.name.startswith("_") and not _is_hook(module, owner)
    )


@cache
def _references():
    """``(name, module, owner)`` of every name and attribute read in code, the
    owner being the def or class of ``_owners`` that holds it."""
    refs = set()
    for module, tree in _trees().items():
        for owner, stmt in _owners(tree):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add((node.id, module, owner))
                elif isinstance(node, ast.Attribute):
                    refs.add((node.attr, module, owner))
    return refs


@cache
def _traced():
    return {f"{module.removeprefix('secnet.')}.{attr}"
            for _, module, attr, *_ in _load_tracer().WRAPS}


def test_allowlist_names_public_functions():
    assert set(ALLOWED) <= set(public_functions())


def _assert_used(module, owner):
    """Some code outside ``owner``'s own def reads its name."""
    qualname, name = f"{module}.{owner}", owner.rpartition(".")[2]
    if qualname in ALLOWED or qualname in _traced():
        return
    users = {(m, o) for ref, m, o in _references() if ref == name}
    assert users - {(module, owner)}, (
        f"{qualname} is reached only from tests: move it into tests/ as a "
        "local oracle, or delete it with the tests that only check it")


@pytest.mark.parametrize("qualname", public_functions())
def test_public_function_is_used(qualname):
    _assert_used(*qualname.rsplit(".", 1))


@pytest.mark.parametrize("qualname", public_methods())
def test_public_method_is_used(qualname):
    module, cls, name = qualname.rsplit(".", 2)
    _assert_used(module, f"{cls}.{name}")
