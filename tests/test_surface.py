"""Every definition in the package has a caller in the product.

A top-level function, class or constant, or a public method, of a module in
``src/susygordon`` must be read from ``src/``, ``demos/`` or
``perfbench/`` somewhere outside its own definition or binding.  Tests do
not count: code that only tests call belongs in the tests.  The re-exports
of ``__init__.py`` do not count either.  A name inside a string counts,
because ``perfbench/tracer.py`` resolves what it wraps from strings such as
``"odes:integrate_profile_ode"``.  A docstring does not: prose that names a
definition calls nothing.  A method counts as referenced wherever an
attribute of its name is read.  Anything top-level counts only through its
name or a string: an attribute read such as ``ctx.gen`` reaches a method,
never a module function ``gen``.

A class must also be called, as ``Name(...)`` or ``mod.Name(...)``, outside
its own body: a class that is only named in ``isinstance`` checks or
annotations is never built, so the branches that test for it are dead.
``Enum`` and ``Protocol`` subclasses are exempt; neither is built by a call.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "susygordon"
CALLER_DIRS = (SRC, ROOT / "demos", ROOT / "perfbench")

_WORD = re.compile(r"[A-Za-z_]\w*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    """(qualified name, node) of each top-level def and class, of each name
    a top-level assignment binds, and of each public method of a top-level
    class."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, _DEFS[:2]) and not m.name.startswith("_"):
                    yield f"{node.name}.{m.name}", m
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def references(tree, attributes: bool = True) -> Counter:
    """How often each name is read in ``tree``: as a name, as a word of a
    string that is not a docstring and, if ``attributes``, as an
    attribute."""
    docs = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *_DEFS)) and ast.get_docstring(node) is not None
    }
    seen = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute) and attributes:
            seen[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            seen.update(_WORD.findall(node.value))
    return seen


def unreferenced(modules: dict, callers: list) -> list:
    """``module.qualname`` of each definition in ``modules`` (name -> tree)
    that no tree of ``callers`` reads outside the definition itself.  A
    method is read as an attribute; a top-level name only as a name or in a
    string."""
    named, anywhere = Counter(), Counter()
    for tree in callers:
        named.update(references(tree, attributes=False))
        anywhere.update(references(tree))
    out = []
    for mod, tree in modules.items():
        for qual, node in definitions(tree):
            owner, _, name = qual.rpartition(".")
            total = anywhere if owner else named
            if total[name] == references(node, attributes=bool(owner))[name]:
                out.append(f"{mod}.{qual}")
    return sorted(out)


_NEVER_CALLED = {"Enum", "Protocol"}


def calls(tree) -> Counter:
    """How often each name is called in ``tree``, as ``name(...)`` or
    ``obj.name(...)``."""
    seen = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                seen[f.id] += 1
            elif isinstance(f, ast.Attribute):
                seen[f.attr] += 1
    return seen


def uncalled_classes(modules: dict, callers: list) -> list:
    """``module.Class`` of each top-level class in ``modules`` that no tree of
    ``callers`` calls outside the class itself; ``Enum`` and ``Protocol``
    subclasses excepted."""
    total = Counter()
    for tree in callers:
        total.update(calls(tree))
    out = []
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                     for b in node.bases}
            if bases & _NEVER_CALLED:
                continue
            if total[node.name] == calls(node)[node.name]:
                out.append(f"{mod}.{node.name}")
    return sorted(out)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _package():
    """(module name -> tree, every caller tree) of the product."""
    modules = {p.stem: _parse(p) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    callers = list(modules.values()) + [
        _parse(p) for d in CALLER_DIRS[1:] for p in sorted(d.glob("*.py"))
    ]
    return modules, callers


def test_every_definition_has_a_product_caller():
    assert unreferenced(*_package()) == []


def test_every_class_is_built_by_the_product():
    assert uncalled_classes(*_package()) == []


def test_guard_sees_a_class_that_is_only_tested_for():
    src = '''
import enum
from enum import Enum
from typing import Protocol

class Built:
    pass

class Checked:
    pass

class Selfish:
    def again(self):
        return Selfish()

class Colour(Enum):
    RED = 1

class Shade(enum.Enum):
    DARK = 1

class Shape(Protocol):
    def area(self) -> float: ...

def entry(f: Shape):
    return Built() if isinstance(f, Checked) else Colour.RED
'''
    tree = ast.parse(src)
    assert uncalled_classes({"mod": tree}, [tree]) == ["mod.Checked", "mod.Selfish"]


def test_guard_sees_an_unused_definition():
    src = '''
def entry():
    return helper() + K().n()

def helper():
    return 1

def lonely(n):
    """Recursion is no caller."""
    return lonely(n - 1)

class K:
    def m(self):
        pass

    def n(self):
        return self.m()

    def _private(self):
        pass

WRAPPED = ("mod:traced",)

def traced():
    pass
'''
    tree = ast.parse(src)
    # WRAPPED itself is bound and never read
    assert unreferenced({"mod": tree}, [tree]) == ["mod.WRAPPED", "mod.entry", "mod.lonely"]


def test_guard_ignores_docstrings():
    src = '''"""The interface: ``described`` and ``K.shown``."""

def entry():
    """Calls ``described`` in prose only."""
    return K().used()

def described():
    pass

class K:
    """``shown`` is documented here."""

    def used(self):
        pass

    def shown(self):
        pass

ENTRY = "mod:entry"
'''
    tree = ast.parse(src)
    assert unreferenced({"mod": tree}, [tree]) == ["mod.ENTRY", "mod.K.shown", "mod.described"]


def test_guard_reaches_a_function_only_through_a_name_or_a_string():
    src = '''
def entry(ctx):
    return ctx.gen("theta1") + K().gen() + by_name() + TRACED

def gen(i):
    pass

def by_name():
    pass

def by_string():
    pass

class K:
    def gen(self):
        pass

TRACED = "mod:by_string"
'''
    tree = ast.parse(src)
    assert unreferenced({"mod": tree}, [tree]) == ["mod.entry", "mod.gen"]


def test_guard_sees_a_constant_that_is_only_bound():
    src = '''
LIMIT = 3
TWICE = LIMIT * 2
LOG = Log()
PAIR, SPARE = 1, 2
TABLE: dict = {}
NAMED = 4

class Log:
    pass

def entry():
    table = TABLE
    return PAIR + len(table) + K().NAMED

class K:
    pass
'''
    tree = ast.parse(src)
    assert unreferenced({"mod": tree}, [tree]) == [
        "mod.LOG", "mod.NAMED", "mod.SPARE", "mod.TWICE", "mod.entry",
    ]
