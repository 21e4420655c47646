"""Source checks that need no linter: every import in the package is
used, and every public name has a caller outside the tests."""

import ast
import inspect
from pathlib import Path

import pytest

import dpsco

PACKAGE = Path(dpsco.__file__).resolve().parent
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the benchmark harness is the one caller outside the package and the tests
PERFBENCH = sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
# The single-row and single-phase reference forms: the tests pin the
# batch forms and the executor's raw-array phase to them, bit for bit.
TEST_ONLY_ALLOWED = {
    "loss_value", "loss_gradient", "lip_ext_value", "lip_ext_gradient",
    "solve_regularized_erm",
}


def _dead_imports(source: str) -> list[str]:
    """Names a module imports (outside ``from __future__``) and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def _references(source: str) -> set[str]:
    """Names a module reads, bare or as an attribute, outside the body of
    their own ``def`` or ``class``."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return found


def _uncalled(names, sources) -> list[str]:
    """The names that no source reads."""
    read = set().union(*(_references(source) for source in sources))
    return sorted(set(names) - read)


def test_the_checker_flags_an_unused_import():
    assert _dead_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "line 1: math", "line 2: path",
    ]
    used = "from __future__ import annotations\nimport numpy as np\nnp.zeros(1)\n"
    assert _dead_imports(used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _dead_imports(path.read_text(encoding="utf-8")) == []


def test_the_census_counts_calls_and_attribute_reads_but_not_self_reference():
    sources = [
        "def used():\n    return 1\n\ndef helper():\n    return used()\n",
        "import dp\ndp.mod.read(dp.mod.Kind)\n",
        "def recur(n):\n    return recur(n - 1) if n else 0\n",
        "class Solo:\n    def me(self):\n        return Solo()\n",
        "print('quoted')\n",
    ]
    names = ["used", "read", "Kind", "recur", "Solo", "quoted", "helper"]
    assert _uncalled(names, sources) == ["Solo", "helper", "quoted", "recur"]


def test_every_public_name_has_a_caller_outside_the_tests():
    assert PERFBENCH, "perfbench/*.py not found next to src/"
    public = [name for name in dpsco.__all__ if not inspect.ismodule(getattr(dpsco, name))]
    assert TEST_ONLY_ALLOWED <= set(public)
    sources = [path.read_text(encoding="utf-8") for path in MODULES + PERFBENCH]
    # an allowed name that gains a caller leaves the list
    assert _uncalled(public, sources) == sorted(TEST_ONLY_ALLOWED)
