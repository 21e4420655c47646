"""Source checks that need no linter: every import in the package is used."""

import ast
from pathlib import Path

import pytest

import dpsco

PACKAGE = Path(dpsco.__file__).resolve().parent
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def test_the_checker_flags_an_unused_import():
    assert _dead_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "line 1: math", "line 2: path",
    ]
    used = "from __future__ import annotations\nimport numpy as np\nnp.zeros(1)\n"
    assert _dead_imports(used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _dead_imports(path.read_text(encoding="utf-8")) == []
