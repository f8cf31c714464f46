"""The public functions of ``secnet`` are the ones it runs: each is called
from code in ``src/`` outside its own ``def``, or wrapped by name in the
benchmark's tracer.  A function only tests reach belongs in ``tests/``, as a
local oracle of the comparison that uses it."""

import ast
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


def public_functions():
    return sorted(
        f"{module}.{node.name}"
        for module, tree in _trees().items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    )


@cache
def _references():
    """``(name, module, top-level def)`` of every name and attribute read in
    code, the def being ``None`` at module level."""
    refs = set()
    for module, tree in _trees().items():
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
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


@pytest.mark.parametrize("qualname", public_functions())
def test_public_function_is_used(qualname):
    if qualname in ALLOWED or qualname in _traced():
        return
    module, _, name = qualname.rpartition(".")
    users = {(m, owner) for ref, m, owner in _references() if ref == name}
    assert users - {(module, name)}, (
        f"{qualname} is reached only from tests: move it into tests/ as a "
        "local oracle, or delete it with the tests that only check it")
