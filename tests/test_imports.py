"""Every name a package, test or demo module imports is used in that module,
and each module of the package imports only the modules its layer allows.

``__init__.py`` is skipped: its imports are the public API.  A module that
re-exports a name writes ``from .mod import Name as Name``, the explicit
re-export form, and that import is skipped too.

``LAYERS`` states the package's import graph, a "levelization" in the sense
of Lakos, *Large-Scale C++ Software Design* (1996), ch. 5: it has no cycle,
so each module can be understood and tested with only the modules below it.
Every import of a package module counts, relative or by the package's name,
at module level or inside a function.  The graph is stated exactly, so an
edge that goes is struck from the table too.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "susygordon"
DEMOS = TESTS.parent / "demos"
PACKAGE = {p.stem: p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
MODULES = (
    list(PACKAGE.values())
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


# module of src/ -> the package modules it may import
LAYERS = {
    "analytic": set(),
    "grassmann": {"analytic"},
    "elliptic": {"grassmann"},
    "odes": {"analytic", "elliptic", "grassmann"},
    "superjet": {"analytic", "grassmann"},
    "superfield": {"analytic", "grassmann", "superjet"},
    "prolongation": {"analytic", "grassmann", "superjet"},
    "superalgebra": {"analytic", "grassmann", "prolongation"},
    "reductions": {"analytic", "grassmann", "odes", "prolongation", "superalgebra",
                   "superfield", "superjet"},
    "catalog": {"analytic", "elliptic", "grassmann", "odes", "reductions", "superfield",
                "superjet"},
    "checks": {"analytic", "catalog", "elliptic", "grassmann", "odes", "prolongation",
               "reductions", "superalgebra", "superfield"},
    "cli": {"catalog", "checks", "grassmann", "odes", "superalgebra"},
}


def package_imports(source: str) -> set:
    """The package modules that a module of the package imports, anywhere in
    it, relatively or by the package's name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("susygordon" if node.level else "", node.module)))
            dotted = ([f"{base}.{alias.name}" for alias in node.names]
                      if base == "susygordon" else [base])
        else:
            continue
        found |= {d.split(".")[1] for d in dotted if d.startswith("susygordon.")}
    return found


def import_graph() -> dict:
    return {name: package_imports(path.read_text(encoding="utf-8"))
            for name, path in PACKAGE.items()}


def below(graph: dict, module: str) -> set:
    """Every module that importing ``module`` imports, directly or not."""
    seen, todo = set(), [module]
    while todo:
        for dep in graph[todo.pop()] - seen:
            seen.add(dep)
            todo.append(dep)
    return seen


def test_every_module_imports_what_its_layer_allows():
    graph = import_graph()
    assert sorted(graph) == sorted(LAYERS), "every module of src/ needs a LAYERS entry"
    assert {name: deps for name, deps in graph.items() if deps != LAYERS[name]} == {}


def test_the_layers_have_no_cycle():
    assert [name for name in LAYERS if name in below(LAYERS, name)] == []


def test_solve_needs_only_the_lowest_layers():
    # solve runs one reduced equation's march and rows, no superfield,
    # prolongation or superalgebra code
    [home] = [name for name, path in PACKAGE.items()
              if any(isinstance(node, ast.FunctionDef) and node.name == "solve_profile"
                     for node in ast.parse(path.read_text(encoding="utf-8")).body)]
    assert below(import_graph(), home) == {"analytic", "elliptic", "grassmann"}


def test_guard_sees_every_package_import():
    src = ("import math\nfrom .odes import step_count\nfrom os.path import join\n"
           "def f():\n    from . import catalog\n    from .grassmann import scalar\n"
           "    import susygordon.cli\n    from susygordon import checks\n"
           "    from susygordon.elliptic import jacobi\n")
    assert package_imports(src) == {"odes", "catalog", "grassmann", "cli", "checks", "elliptic"}
    assert below({"a": {"b"}, "b": {"c"}, "c": set()}, "a") == {"b", "c"}
    assert below({"a": {"b"}, "b": {"a"}}, "a") == {"a", "b"}  # a cycle reaches itself
