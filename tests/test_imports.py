"""Every name a package, test or demo module imports is used in that module.

``__init__.py`` is skipped: its imports are the public API.  A module that
re-exports a name writes ``from .mod import Name as Name``, the explicit
re-export form, and that import is skipped too.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "susygordon"
DEMOS = TESTS.parent / "demos"
MODULES = (
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    + sorted(TESTS.glob("*.py"))
    + sorted(DEMOS.glob("*.py"))
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.asname == alias.name:
                    continue  # explicit re-export
                bound = alias.asname or alias.name.partition(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    src = "from math import exp as _fexp, factorial\nfrom .m import A as A\nfactorial(3)\n"
    assert unused_imports(src) == [(1, "_fexp")]
