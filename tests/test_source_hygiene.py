"""Source checks that need no linter: every import in the package is
used, every public name and every settable value has a caller outside
the tests, only the validation funnel tests whether a value is an
integer, and no plan builder takes the instance or its data."""

import ast
import dataclasses
import inspect
import typing
from pathlib import Path

import pytest

import dpsco
from dpsco import base_solvers, interpolation
from dpsco.problems import Dataset, Instance

PACKAGE = Path(dpsco.__file__).resolve().parent
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the one module that tests for an integer type (its count rule), and the one
# function elsewhere that does so to format output, not to validate input
INTEGER_TESTS_ALLOWED = {("geometry.py", None), ("bench.py", "_format_cell")}
# the benchmark harness is the one caller outside the package and the tests
PERFBENCH = sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
# The single-row and single-phase reference forms: the tests pin the
# batch forms and the executor's raw-array phase to them, bit for bit.
TEST_ONLY_ALLOWED = {
    "loss_value", "loss_gradient", "lip_ext_value", "lip_ext_gradient",
    "solve_regularized_erm",
}
# Settable values that no call outside the tests sets, each with its reason.
SETTABLE_TEST_ONLY_ALLOWED = {
    "solve_regularized_erm.span": "reference form (TEST_ONLY_ALLOWED)",
    "solve_regularized_erm.clip": "reference form (TEST_ONLY_ALLOWED)",
    "solve_regularized_erm.tolerance": "reference form (TEST_ONLY_ALLOWED)",
    "loss_value.label": "reference form (TEST_ONLY_ALLOWED)",
    "loss_gradient.label": "reference form (TEST_ONLY_ALLOWED)",
    # perfbench passes InnerSolveConfig() by position, so the class goes
    # only with a change to the benchmark
    "InnerSolveConfig.tolerance": "waits for one solver signature (ROADMAP direction 3)",
    "InnerSolveConfig.max_iterations": "waits for one solver signature (ROADMAP direction 3)",
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


def _settable_values(obj) -> list[tuple[str, int | None, object]]:
    """(name, position or None, default) of each defaulted parameter of a
    public function, or each defaulted init field of a public dataclass;
    nothing for any other object."""
    if not inspect.isfunction(obj) and not (
        inspect.isclass(obj) and dataclasses.is_dataclass(obj)
    ):
        return []
    params = inspect.signature(obj).parameters.values()
    positional = [p.name for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return [
        (p.name, positional.index(p.name) if p.name in positional else None, p.default)
        for p in params
        if p.default is not p.empty
    ]


def _is_literal(node, value) -> bool:
    try:
        return ast.literal_eval(node) == value
    except ValueError:  # not a literal
        return False


def _unset_values(settable, sources) -> list[str]:
    """``callee.name`` of each settable value (``{callee: _settable_values}``)
    that no call in the sources passes anything but its default literal,
    by keyword or by position. A ``*`` unpacking at or before the value's
    position, or any ``**`` unpacking, counts as passing it."""
    unset = {(callee, name) for callee, values in settable.items() for name, _, _ in values}
    for source in sources:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for name, position, default in settable.get(callee, ()):
                passed = [kw.value for kw in call.keywords if kw.arg == name]
                unpacked = any(kw.arg is None for kw in call.keywords)
                for i, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred):
                        unpacked = unpacked or (position is not None and i <= position)
                        break
                    if i == position:
                        passed.append(arg)
                if unpacked or not all(_is_literal(node, default) for node in passed):
                    unset.discard((callee, name))
    return sorted(f"{callee}.{name}" for callee, name in unset)


def test_the_settable_census_counts_keyword_positional_and_unpacked_setters():
    def f(a, b=1, *, c=None, d=2.0):
        pass

    @dataclasses.dataclass
    class Conf:
        x: int
        y: float = 0.5
        z: tuple = ()
        w: int = dataclasses.field(default=3, init=False)

    settable = {"f": _settable_values(f), "Conf": _settable_values(Conf), "g": _settable_values(1)}
    assert settable["f"] == [("b", 1, 1), ("c", None, None), ("d", None, 2.0)]
    assert settable["Conf"] == [("y", 1, 0.5), ("z", 2, ())]
    assert settable["g"] == []
    # a default literal sets nothing; a name or any other value does
    assert _unset_values(settable, ["f(0, 1, c=None, d=2.0)\nConf(1, 0.5, z=())\n"]) == [
        "Conf.y", "Conf.z", "f.b", "f.c", "f.d",
    ]
    sources = ["f(0, b)\n", "m.Conf(1, y=0.25)\n", "def f(a, b=1):\n    return f(a, d=3.0)\n"]
    assert _unset_values(settable, sources) == ["Conf.z", "f.c"]
    # a * unpacking reaches its own position and every later one
    assert _unset_values(settable, ["f(*args)\nConf(1, 0.5, *rest)\n"]) == ["Conf.y", "f.c", "f.d"]
    assert _unset_values(settable, ["Conf(*first, 0.5)\nf(**kw)\n"]) == []


def test_every_settable_value_has_a_setter_outside_the_tests():
    settable = {name: _settable_values(getattr(dpsco, name)) for name in dpsco.__all__}
    sources = [path.read_text(encoding="utf-8") for path in MODULES + PERFBENCH]
    # an allowed value that gains a setter leaves the list
    assert _unset_values(settable, sources) == sorted(SETTABLE_TEST_ONLY_ALLOWED)


def _data_parameters(module) -> dict[str, list[str]]:
    """For each ``*_plan`` function of a module, its parameters annotated
    ``Instance`` or ``Dataset`` or named like one."""
    found = {}
    for name, fn in vars(module).items():
        if not (name.endswith("_plan") and inspect.isfunction(fn)):
            continue
        hints = typing.get_type_hints(fn)
        found[name] = [
            param for param in inspect.signature(fn).parameters
            if hints.get(param) in (Instance, Dataset)
            or param in ("inst", "instance", "dataset", "data")
        ]
    return found


def test_no_plan_builder_takes_the_instance_or_its_data():
    # a plan fixes every release from public values before any sample is
    # read; a builder that cannot see the samples cannot depend on them
    found = _data_parameters(base_solvers) | _data_parameters(interpolation)
    assert {"erm_plan", "growth_plan", "localize_plan"} <= set(found)
    assert {name: params for name, params in found.items() if params} == {}


def _integer_type_tests(source: str) -> list[tuple[str | None, int]]:
    """(innermost function or None, line) of each test for an integer
    type: ``isinstance`` or ``issubclass`` against ``int`` or numpy's
    ``integer``, a comparison with ``int`` (``type(v) is int``), and any
    use of ``numbers.Integral``."""
    found = []

    def is_int(node):
        return (isinstance(node, ast.Name) and node.id == "int") or (
            isinstance(node, ast.Attribute) and node.attr == "integer"
        )

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        flagged = False
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
            "isinstance", "issubclass"
        ) and len(node.args) == 2:
            kinds = node.args[1]
            flagged = any(map(is_int, kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]))
        elif isinstance(node, ast.Compare):
            flagged = any(map(is_int, [node.left, *node.comparators]))
        elif "Integral" in (getattr(node, "id", None), getattr(node, "attr", None)):
            flagged = True
        if flagged:
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_the_checker_flags_every_integer_type_test():
    source = (
        "import numbers\n"
        "def a(v):\n    return isinstance(v, int)\n"
        "def b(v):\n    return isinstance(v, (bool, int))\n"
        "def c(v):\n    return isinstance(v, numbers.Integral)\n"
        "def d(v):\n    return issubclass(type(v), np.integer)\n"
        "def e(v):\n    return type(v) is int\n"
        "def f(v):\n    return isinstance(v, (bool, float)) or int(v) == v\n"
        "flag = isinstance(0, int)\n"
    )
    assert _integer_type_tests(source) == [
        ("a", 3), ("b", 5), ("c", 7), ("d", 9), ("e", 11), (None, 14),
    ]


def test_only_the_validation_funnel_tests_for_an_integer_type():
    found = [
        f"{path.name} line {line} ({func})"
        for path in sorted(PACKAGE.glob("*.py"))
        for func, line in _integer_type_tests(path.read_text(encoding="utf-8"))
        if (path.name, None) not in INTEGER_TESTS_ALLOWED
        and (path.name, func) not in INTEGER_TESTS_ALLOWED
    ]
    assert found == []
