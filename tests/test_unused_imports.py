"""Every name a priorcs module or test module imports is used in that module.

A stdlib-ast stand-in for a linter's unused-import rule (F401), so that a
simplification cannot leave a stale import behind. An import statement whose
first line carries ``# noqa: F401`` is exempt (a deliberate re-export).

A module that defers loading other package modules lists the names it takes
from each in a ``_LAZY`` table, {module: names}; every listed name must be
one that module defines or imports at its top level. A stale entry would
otherwise surface only as an error when the name is first looked up.

And every public function of the package is named somewhere beyond its own
definition: in the package (the names listed in ``experiments._LAZY`` count,
the package's export table does not), in ``bench/`` (whose patches name
functions as strings), or in the README's library example. Every public
method and property is named in the package or in ``bench/``. Library code
that only tests call fails this check.

And a test module imports no third-party package but numpy, pytest and
hypothesis, so no package is installed for a test oracle alone.
"""

import ast
import re
import sys
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


def public_definitions(source: str) -> dict:
    """The public functions, methods and properties a module defines:
    {qualified name: name}."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found[node.name] = node.name
        elif isinstance(node, ast.ClassDef):
            found.update({f"{node.name}.{item.name}": item.name for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")})
    return found


def named(source: str, strings: bool = False) -> set:
    """The identifiers a source reads: names, attributes and imported names,
    and with strings, string constants that are identifiers."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif strings and isinstance(node, ast.Constant) and str(node.value).isidentifier():
            names.add(node.value)
    return names


def unreached(definitions: dict, sources: list, lazy_names=(), bench=(), example: str = "") -> list:
    """The definitions whose name no source or bench file names, nor, for a
    module function, a lazy entry or the example; a method or property
    (a qualified name with a dot) counts only callers in the sources and
    bench files."""
    names = set()
    for source in sources:
        names |= named(source)
    for source in bench:
        names |= named(source, strings=True)
    functions = names | set(lazy_names) | named(example)
    return sorted(qualified for qualified, name in definitions.items()
                  if name not in (names if "." in qualified else functions))


def library_example() -> str:
    readme = (ROOT / "README.md").read_text()
    return re.search(r"## Library example\n+```python\n(.*?)```", readme, re.S).group(1)


def test_every_public_function_is_reached_beyond_the_tests():
    sources = [path.read_text() for path in PACKAGE]
    definitions = {}
    for source in sources:
        definitions.update(public_definitions(source))
    lazy = lazy_table((ROOT / "src" / "priorcs" / "experiments.py").read_text())
    bench = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    assert len(definitions) > 50
    assert unreached(definitions, sources, [n for names in lazy.values() for n in names], bench,
                     library_example()) == []


def test_check_finds_a_function_only_tests_call():
    source = ("def used():\n    return helper()\n\ndef helper():\n    pass\n\n"
              "def lone():\n    pass\n\ndef patched():\n    pass\n\ndef listed():\n    pass\n\n"
              "class C:\n    @property\n    def p(self):\n        return self.q\n\n"
              "    def q(self):\n        return 'lone'\n")
    definitions = public_definitions(source)
    assert definitions == {"used": "used", "helper": "helper", "lone": "lone", "patched": "patched",
                           "listed": "listed", "C.p": "p", "C.q": "q"}
    bench = ['setattr(m, "patched", wrap(getattr(m, "patched")))\n']
    # the example reaches a module function, but not a property or method
    assert unreached(definitions, [source], ["listed"], bench, "x = C().p\nlone()\n") == ["C.p", "used"]
    assert unreached(definitions, [source], ["listed"], bench + ["x = C().p\n"], "lone()\n") == ["used"]


# what a test module may import beyond the standard library, the package and
# the other test modules
TEST_DEPENDENCIES = {"numpy", "pytest", "hypothesis"}


def third_party_imports(source: str, local: set) -> list:
    """The top-level packages source imports that are not in the standard
    library, the package, TEST_DEPENDENCIES or the module names local."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return sorted(found - set(sys.stdlib_module_names) - TEST_DEPENDENCIES - {"priorcs"} - local)


def test_tests_import_no_other_third_party_package():
    tests = {name: path for name, path in MODULES.items() if name.startswith("tests/")}
    local = {path.stem for path in tests.values()}
    found = {name: third_party_imports(path.read_text(), local) for name, path in tests.items()}
    assert {name: packages for name, packages in found.items() if packages} == {}


def test_check_finds_a_third_party_import():
    source = ("import os, numpy.linalg\nimport mpmath as mp\nfrom scipy import linalg\n"
              "from . import x\nfrom oracles import y\nimport priorcs.solver\n")
    assert third_party_imports(source, {"oracles"}) == ["mpmath", "scipy"]
