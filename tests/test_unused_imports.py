"""Every name a priorcs module or test module imports is used in that module.

A stdlib-ast stand-in for a linter's unused-import rule (F401), so that a
simplification cannot leave a stale import behind. An import statement whose
first line carries ``# noqa: F401`` is exempt (a deliberate re-export), and so
is the package ``__init__``, whose imports are the public surface.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# package modules by file name, test modules by their path from the root
MODULES = {p.name: p for p in sorted((ROOT / "src" / "priorcs").glob("*.py")) if p.name != "__init__.py"}
MODULES.update({f"tests/{p.name}": p for p in sorted((ROOT / "tests").glob("*.py"))})


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            exempt = "# noqa: F401" in lines[node.lineno - 1]
            if exempt or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports(MODULES[module].read_text()) == []


def test_check_finds_an_unused_name():
    source = "import os\nfrom math import pi, tau\nfrom x import (  # noqa: F401\n    e,\n)\nprint(pi)\n"
    assert unused_imports(source) == [(1, "os"), (2, "tau")]
