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

A parameter with a default, of any function or method in the package,
nested ones included, must be passed by some call in ``src/``, ``tests/``,
``demos/`` or ``perfbench/``: by keyword, by position or through a ``*`` or
``**`` splat, and a call of a class reaches its ``__init__``.  Calls are
matched by name.  Tests count here, since a test that passes another value
exercises the parameter; a default that no call ever overrides is a
constant.

A parameter of a top-level or nested function in ``src/``, ``tests/``,
``demos/`` or ``perfbench/`` must be read by the function's body when the
function is only ever called: never read as a value and never named in a
string outside a docstring.  A function passed as a value (a row or
invariants function, a registry sampler, an rhs) keeps the signature its
callers fix, and is exempt, as a method is.

No class in the package, nested ones included, subclasses
``GrassmannNumber``: its operations hold the one rule for every operand,
the empty number included, and a subclass would fork that rule for the
values it wraps.

``@dataclass`` decorates only the records whose instances are rebuilt with
``dataclasses.replace`` (``DATACLASSES``).  Every command imports the whole
package, and a dataclass generates and compiles its methods at import; a
record is a ``NamedTuple``, or a plain class where it validates, caches or
changes.

Every memo that lives as long as its module is one that
``helpers.clear_memos`` empties (``helpers.MEMOS``): a top-level function or
a method of a top-level class under ``@cache`` or ``@lru_cache``, a top-level
name bound to an empty dict, and, for each top-level instance of a class of
the same module, the empty dicts its ``__init__`` keeps on ``self`` and its
``cached_property``s.
"""

import ast
import pathlib
import re
from collections import Counter

from helpers import MEMOS

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


SETTER_DIRS = (SRC, ROOT / "tests", ROOT / "demos", ROOT / "perfbench")


def defaulted_parameters(tree, scope="", cls=None):
    """(qualified name, callee names, parameter, position) of each parameter
    with a default of each function and method in ``tree``, nested ones
    included.  The callee names are those a call reaches the function by:
    its own, and for ``__init__`` its class's too.  The position counts the
    arguments a call passes ahead of the parameter, ``self`` or ``cls``
    excluded; a keyword-only parameter has none."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from defaulted_parameters(node, f"{scope}{node.name}.", node.name)
        elif isinstance(node, _DEFS[:2]):
            qual = f"{scope}{node.name}"
            names = {node.name, cls} if node.name == "__init__" else {node.name}
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            skip = 1 if cls is not None and not static else 0
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield qual, names, arg.arg, i - skip
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield qual, names, arg.arg, None
            yield from defaulted_parameters(node, f"{qual}.")
        else:
            yield from defaulted_parameters(node, scope, cls)


def call_shapes(tree):
    """(callee name, positional count, keyword names) of each call in
    ``tree``; a ``*`` splat makes the count infinite and a ``**`` splat
    passes every keyword."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        count = (float("inf") if any(isinstance(x, ast.Starred) for x in node.args)
                 else len(node.args))
        keywords = {k.arg for k in node.keywords}
        yield name, count, keywords


def unset_parameters(modules: dict, callers: list) -> list:
    """``module.qualname(parameter)`` of each defaulted parameter in
    ``modules`` that no call in ``callers`` passes: by keyword, by position
    or through a splat."""
    shapes = {}
    for tree in callers:
        for name, count, keywords in call_shapes(tree):
            shapes.setdefault(name, []).append((count, keywords))
    out = []
    for mod, tree in modules.items():
        for qual, names, param, position in defaulted_parameters(tree):
            if not any(
                param in keywords or None in keywords
                or (position is not None and count > position)
                for name in names
                for count, keywords in shapes.get(name, ())
            ):
                out.append(f"{mod}.{qual}({param})")
    return sorted(out)


def test_every_defaulted_parameter_is_set_somewhere():
    modules, _ = _package()
    callers = [_parse(p) for d in SETTER_DIRS for p in sorted(d.glob("*.py"))]
    assert unset_parameters(modules, callers) == []


def test_guard_sees_a_parameter_that_nothing_sets():
    src = '''
def entry(opts):
    inner()
    by_keyword(1, scale=2)
    by_position(1, 2)
    by_splat(*opts)
    by_double_splat(**opts)
    K(3).m(4)
    K.s(5)
    return K(size=1).m()

def outer():
    def inner(depth=3):
        return depth
    return inner

def by_keyword(a, scale=1, shift=0):
    pass

def by_position(a, b=1, c=2):
    pass

def by_splat(a=1, b=2):
    pass

def by_double_splat(*, flag=False):
    pass

class K:
    def __init__(self, size=0, unused=None):
        pass

    def m(self, x=1, y=2):
        pass

    @staticmethod
    def s(v=1, w=2):
        pass
'''
    tree = ast.parse(src)
    assert unset_parameters({"mod": tree}, [tree]) == [
        "mod.K.__init__(unused)",
        "mod.K.m(y)",
        "mod.K.s(w)",
        "mod.by_keyword(shift)",
        "mod.by_position(c)",
        "mod.outer.inner(depth)",
    ]


def called_only(trees) -> set:
    """The names that ``trees`` read only as the callee of a call."""
    total, called = Counter(), Counter()
    for tree in trees:
        total.update(references(tree))
        called.update(calls(tree))
    return {name for name, n in called.items() if total[name] == n}


def functions(tree, scope="", in_class=False):
    """(qualified name, node) of each top-level or nested function in
    ``tree``; methods are left out, the functions nested in them are not."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from functions(node, f"{scope}{node.name}.", True)
        elif isinstance(node, _DEFS[:2]):
            qual = f"{scope}{node.name}"
            if not in_class:
                yield qual, node
            yield from functions(node, f"{qual}.")
        else:
            yield from functions(node, scope, in_class)


def unread_parameters(modules: dict, callers: list) -> list:
    """``module.qualname(parameter)`` of each parameter that the body of a
    function of ``modules`` never reads, where ``callers`` only call it."""
    only = called_only(callers)
    out = []
    for mod, tree in modules.items():
        for qual, node in functions(tree):
            if node.name not in only:
                continue
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None and arg.arg not in read:
                    out.append(f"{mod}.{qual}({arg.arg})")
    return sorted(out)


def test_every_parameter_of_a_called_function_is_read():
    modules = {f"{d.name}/{p.stem}": _parse(p)
               for d in SETTER_DIRS for p in sorted(d.glob("*.py"))}
    assert unread_parameters(modules, list(modules.values())) == []


def test_guard_sees_a_parameter_that_nothing_reads():
    src = '''
def entry(rows):
    helper(1, 2)
    K().method(3)
    register(by_value)
    return outer(rows) + TRACED

def helper(used, unused):
    return used

def by_value(fixed, signature):
    return fixed

def traced(unused):
    pass

def outer(rows, *args, flag=False, **kwargs):
    def inner(x, y):
        return x

    def closure(z):
        return rows

    return inner(1, 2) + closure(0)

class K:
    def method(self, unused):
        pass

TRACED = "mod:traced"
'''
    tree = ast.parse(src)
    assert unread_parameters({"mod": tree}, [tree]) == [
        "mod.helper(unused)",
        "mod.outer(args)",
        "mod.outer(flag)",
        "mod.outer(kwargs)",
        "mod.outer.closure(z)",
        "mod.outer.inner(y)",
    ]


def subclasses_of(modules: dict, base: str) -> list:
    """``module.Class`` of each class in ``modules``, nested ones included,
    that names ``base`` among its bases, as a name or an attribute."""
    out = []
    for mod, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                (b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)) == base
                for b in node.bases
            ):
                out.append(f"{mod}.{node.name}")
    return sorted(out)


def test_no_class_forks_the_supernumber_arithmetic():
    modules = {p.stem: _parse(p) for p in sorted(SRC.glob("*.py"))}
    assert subclasses_of(modules, "GrassmannNumber") == []


def test_guard_sees_a_supernumber_subclass():
    src = '''
from susygordon import grassmann
from susygordon.grassmann import GrassmannNumber

class Plain:
    pass

class Zero(GrassmannNumber):
    pass

def build():
    class Local(grassmann.GrassmannNumber):
        pass
    return Local
'''
    assert subclasses_of({"mod": ast.parse(src)}, "GrassmannNumber") == ["mod.Local", "mod.Zero"]


# class -> why it stays a dataclass
DATACLASSES = {
    "odes.OdeSystem": "the benchmark tracer and the tests rebuild a system with its rhs "
                      "and energy wrapped, through dataclasses.replace",
    "checks.CheckSpec": "the benchmark tracer rebuilds each check with its sampler "
                        "scoped, through dataclasses.replace",
}


def dataclasses_in(modules: dict) -> list:
    """``module.Class`` of each class in ``modules``, nested ones included,
    that a ``dataclass`` decorator marks: bare or called, as a name or an
    attribute."""
    def marks(d):
        f = d.func if isinstance(d, ast.Call) else d
        return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "dataclass"

    return sorted(
        f"{mod}.{node.name}"
        for mod, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(marks(d) for d in node.decorator_list)
    )


def test_only_the_replaced_records_are_dataclasses():
    modules = {p.stem: _parse(p) for p in sorted(SRC.glob("*.py"))}
    assert dataclasses_in(modules) == sorted(DATACLASSES)


def test_guard_sees_a_dataclass():
    src = '''
import dataclasses
from dataclasses import dataclass, field
from typing import NamedTuple

class Plain:
    pass

class Row(NamedTuple):
    x: int

@dataclass
class Bare:
    x: int = field(default=0)

@dataclass(frozen=True)
class Called:
    pass

@dataclasses.dataclass
class Dotted:
    pass

def build():
    @dataclasses.dataclass(frozen=True)
    class Local:
        pass
    return Local
'''
    assert dataclasses_in({"mod": ast.parse(src)}) == [
        "mod.Bare", "mod.Called", "mod.Dotted", "mod.Local",
    ]


def _decorator_names(node) -> set:
    """The names of ``node``'s decorators, bare or called, as a name or an
    attribute."""
    names = set()
    for d in node.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        names.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None))
    return names


def _empty_dict(value) -> bool:
    return (isinstance(value, ast.Dict) and not value.keys) or (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id == "dict" and not value.args and not value.keywords)


def _bound(node) -> list:
    """The targets of an assignment, or ``[]`` for any other statement."""
    if isinstance(node, ast.Assign):
        return node.targets
    return [node.target] if isinstance(node, ast.AnnAssign) and node.value else []


def _instance_memos(cls) -> list:
    """The empty dicts ``cls.__init__`` keeps on ``self``, and the class's
    ``cached_property``s."""
    out = []
    for item in cls.body:
        if not isinstance(item, ast.FunctionDef):
            continue
        if "cached_property" in _decorator_names(item):
            out.append(item.name)
        if item.name == "__init__":
            out += [t.attr for n in ast.walk(item) for t in _bound(n)
                    if _empty_dict(n.value) and isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name) and t.value.id == "self"]
    return out


def module_memos(modules: dict) -> list:
    """Every memo of ``modules`` that lives as long as its module, named as
    ``helpers.MEMOS`` names them."""
    memo_decorators = {"cache", "lru_cache"}
    found = []
    for mod, tree in modules.items():
        classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and _decorator_names(node) & memo_decorators:
                found.append(f"{mod}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{mod}.{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and _decorator_names(item) & memo_decorators]
            names = [t.id for t in _bound(node) if isinstance(t, ast.Name)]
            if names and _empty_dict(node.value):
                found += [f"{mod}.{n}" for n in names]
            elif (names and isinstance(node.value, ast.Call)
                  and isinstance(node.value.func, ast.Name) and node.value.func.id in classes):
                found += [f"{mod}.{n}.{attr}" for n in names
                          for attr in _instance_memos(classes[node.value.func.id])]
    return sorted(found)


def test_clear_memos_knows_every_module_memo():
    modules = {p.stem: _parse(p) for p in sorted(SRC.glob("*.py"))}
    assert module_memos(modules) == sorted(MEMOS)


def test_guard_sees_every_kind_of_module_memo():
    src = '''
import functools
from functools import cache, cached_property, lru_cache

TABLE = {"a": 1}
_SEEN = {}
_NAMED: dict = dict()

@cache
def bare(x):
    return x

@functools.lru_cache(maxsize=8)
def dotted(x):
    return x

def plain(x):
    return x

class Shape:
    def __init__(self):
        self.names = {"x": 0}
        self._keys = {}
        self._hits: dict = {}

    @cached_property
    def area(self):
        return 1.0

    @lru_cache
    def method(self, x):
        return x

class Local:
    def __init__(self):
        self._memo = {}

SQUARE = Shape()

def build():
    return Local()
'''
    assert module_memos({"mod": ast.parse(src)}) == [
        "mod.SQUARE._hits", "mod.SQUARE._keys", "mod.SQUARE.area", "mod.Shape.method",
        "mod._NAMED", "mod._SEEN", "mod.bare", "mod.dotted",
    ]
    # one unlisted memo in the package fails the comparison
    modules = {p.stem: _parse(p) for p in sorted(SRC.glob("*.py"))}
    modules["made_up"] = ast.parse("from functools import cache\n@cache\ndef f(x):\n    return x\n")
    assert module_memos(modules) != sorted(MEMOS)
    assert "made_up.f" in module_memos(modules)
