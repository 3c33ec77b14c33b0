"""Every name a priorcs module or test module imports is used in that module.

A stdlib-ast stand-in for a linter's unused-import rule (F401), so that a
simplification cannot leave a stale import behind. An import statement whose
first line carries ``# noqa: F401`` is exempt (a deliberate re-export).

A module that defers loading other package modules lists the names it takes
from each in a ``_LAZY`` table, {module: names}; every listed name must be
one that module defines or imports at its top level. A stale entry would
otherwise surface only as an error when the name is first looked up.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "priorcs").glob("*.py"))
# package modules by file name, test modules by their path from the root
MODULES = {p.name: p for p in PACKAGE}
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


def lazy_table(source: str) -> dict:
    """The module's _LAZY table, {module: names}, or {} if it has none."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_LAZY" for t in node.targets):
            return ast.literal_eval(node.value)
    return {}


def top_level_names(source: str) -> set:
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def stale_lazy_names(source: str, sources: dict) -> list:
    """Entries of the _LAZY table in source whose module does not define them;
    sources maps a module name to its source text."""
    return sorted(f"{module}.{name}" for module, names in lazy_table(source).items()
                  for name in names if name not in top_level_names(sources[module]))


def test_lazy_tables_name_what_their_modules_define():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert {name for name, text in sources.items() if lazy_table(text)} == {"__init__", "experiments"}
    for name, text in sources.items():
        assert stale_lazy_names(text, sources) == [], name


def test_check_finds_a_stale_lazy_name():
    sources = {"m": "from .x import a\nB = 1\ndef c():\n    pass\nclass D:\n    pass\n"}
    source = '_LAZY = {"m": ("a", "B", "c", "D", "e")}\n'
    assert stale_lazy_names(source, sources) == ["m.e"]
