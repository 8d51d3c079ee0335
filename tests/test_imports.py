"""Static checks: every name a cadfit module imports is used in that module,
every module-level private name is referenced in the module defining it,
every public function and class has a caller outside the tests, every class
field is read, no module memoizes or reads the environment, no product
goes through BLAS but in the exempt places, and the benchmark's modules
still import and trace what they name.

Standard library and the package only, so it runs wherever the tests do; no
linter needed.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cadfit").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name to line number for each module-level or local import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` bindings (not dunders) to their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, ast.Assign):
            bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound = [node.target.id]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module; binding a name does not use it."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        # a quoted annotation names its types inside a string
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in _imported(tree).items() if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_references_every_private_name_it_defines(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    defined = _private_definitions(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in defined.items() if name not in used]
    assert unused == []


def _identifiers(nodes) -> set[str]:
    """Names, attribute names and imported names among ``nodes``."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _is_command(node) -> bool:
    """A click command, decorated with ``<group>.command(...)``."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        for d in node.decorator_list
    )


def _uncalled(modules: dict[str, ast.Module], outside: list[ast.Module]) -> list[str]:
    """``module.name`` of each public module-level function or class, click
    commands aside, that no other module names, nor its own module outside
    its definition, nor any ``outside`` tree, as an identifier or a string
    (perfbench's tracer names the functions it wraps by string)."""
    named_outside = set()
    for tree in outside:
        nodes = list(ast.walk(tree))
        named_outside |= _identifiers(nodes)
        named_outside |= {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    statements = {mod: [_identifiers(ast.walk(stmt)) for stmt in tree.body] for mod, tree in modules.items()}
    found = []
    for mod, tree in modules.items():
        named = named_outside.union(*(names for other in modules if other != mod for names in statements[other]))
        for i, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_") or _is_command(node):
                continue
            own = set().union(*(names for j, names in enumerate(statements[mod]) if j != i))
            if node.name not in named | own:
                found.append(f"{mod}.{node.name}")
    return found


def test_caller_check_follows_its_rules():
    modules = {
        "a": ast.parse(
            "def called(): pass\n"
            "def recursive(): return recursive()\n"
            "def in_a_docstring(): pass\n"
            "def by_string(): pass\n"
            "class Kept: pass\n"
            "KEPT = Kept\n"
            "def _private(): pass\n"
            "@main.command('x')\n"
            "def cmd(): pass\n"
        ),
        "b": ast.parse('"""in_a_docstring"""\nfrom a import called\n'),
    }
    outside = [ast.parse("WRAPPED = ('by_string',)\n")]
    assert _uncalled(modules, outside) == ["a.recursive", "a.in_a_docstring"]


# public names no code outside the tests may call, and why they stay
_TEST_ONLY = {
    # the dense reference every fast path is tested against bit for bit;
    # the kernel notes define a body's field by it
    "kernel.body_sdf",
}


def test_every_public_definition_has_a_caller_outside_the_tests():
    """No test-only twins of engine logic: a public function or class that
    only tests call is either a caller's or not needed."""
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    outside = [ast.parse(p.read_text(), filename=str(p)) for p in PERFBENCH]
    assert sorted(_uncalled(modules, outside)) == sorted(_TEST_ONLY)


def _fields(tree: ast.Module) -> list[str]:
    """``Class.name`` of each annotated name in a class body."""
    return [
        f"{node.name}.{stmt.target.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def _unread_fields(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """``module.Class.name`` of each field of ``modules`` whose name no
    ``readers`` tree reads as an attribute of anything but ``self``, nor
    holds as a string."""
    read = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                    read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    fields = (f"{mod}.{field}" for mod, tree in modules.items() for field in _fields(tree))
    return [field for field in fields if field.rsplit(".", 1)[1] not in read]


def test_field_check_follows_its_rules():
    modules = {
        "a": ast.parse(
            "class P:\n"
            "    read: int\n"
            "    by_string: int\n"
            "    own: int\n"
            "    written: int = 0\n"
            "    def f(self):\n"
            "        return self.own\n"
            "def g(p):\n"
            "    return p.read\n"
        )
    }
    readers = [*modules.values(), ast.parse("getattr(p, 'by_string')\np.written = 1\n")]
    assert _unread_fields(modules, readers) == ["a.P.own", "a.P.written"]


def test_every_class_field_is_read():
    """A field that nothing reads is data no caller needs.  A read is an
    attribute of anything but ``self``, in a cadfit or perfbench module, or
    a string there.  The check matches by name, so a field passes when any
    read shares its name: a ``Candidate.origin`` would pass beside
    ``Extrusion.origin``."""
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    readers = [*modules.values(), *(ast.parse(p.read_text(), filename=str(p)) for p in PERFBENCH)]
    assert _unread_fields(modules, readers) == []


_BENCHMARK_MODULES = ("spans", "workloads", "drive")


@pytest.fixture
def spans(monkeypatch):
    """perfbench's ``spans`` module, imported with ``workloads`` and
    ``drive`` and dropped again after the test.  ``run.py`` stays out, as
    it sets BLAS variables when imported."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        spans, _, _ = map(importlib.import_module, _BENCHMARK_MODULES)
        yield spans
    finally:
        for name in _BENCHMARK_MODULES:
            sys.modules.pop(name, None)


def test_the_benchmark_imports_and_traces_what_it_names(spans):
    """perfbench reaches cadfit by name: its modules import cadfit's, and its
    tracer wraps each function ``SPANNED`` and ``COUNTED`` name.  So a change
    to ``src`` that breaks the benchmark fails here."""
    from cadfit import kernel

    tracer = spans.Tracer()
    try:
        tracer.install()
        assert kernel.render.perfbench_original
    finally:
        tracer.uninstall()
    assert not hasattr(kernel.render, "perfbench_original")


def test_the_benchmark_traces_a_run(spans):
    """The tracer also reads what traced calls return, such as ``cand.seq``
    of each of infill's candidates, so a change to such a shape fails here
    and not only in the benchmark."""
    from helpers import cylinder_sequence

    from cadfit import engine
    from cadfit.kernel import GridSpec, render

    target = render(cylinder_sequence(r=90), GridSpec(resolution=16))
    tracer = spans.Tracer()
    try:
        tracer.install()
        engine.run(cylinder_sequence(), target, engine.EngineConfig(max_rounds=1, n=2))
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert layers["generator.candidates"] == (2, "count")
    assert layers["kernel.render.calls"][0] > 0


# method names that change a list, dict or set in place
_MUTATORS = {"append", "extend", "insert", "remove", "pop", "popitem", "clear", "update", "setdefault", "add", "discard", "sort", "reverse"}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope):
    """The nodes of a scope's own body: nested functions are yielded but not
    entered."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _bound(nodes) -> set[str]:
    """Names a scope binds: assignment targets, imports and definitions."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
    return names


def _root(node):
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _module_state_writes(tree: ast.Module) -> list[str]:
    """Line and name of each write to module state: ``global``, a functools
    cache, or a function storing into, or calling a mutating method on, a
    name the module binds at top level and no enclosing function rebinds."""
    module_nodes = list(_own_nodes(tree))
    module = _bound(module_nodes)
    modules = _bound(n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append(f"{node.lineno} global {', '.join(node.names)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{node.lineno} functools.{a.name}" for a in node.names if a.name in ("cache", "lru_cache")]
        elif isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache") and _root(node) == "functools":
            found.append(f"{node.lineno} functools.{node.attr}")

    def visit(fn, enclosing: set[str]):
        args = fn.args
        own = list(_own_nodes(fn))
        local = enclosing | _bound(own)
        local |= {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
        for node in own:
            if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, (ast.Store, ast.Del)):
                name = _root(node)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
                name = _root(node.func.value)
                if name in modules:  # np.sort(...) is a function, not a method of np
                    continue
            else:
                if isinstance(node, _SCOPES):
                    visit(node, local)
                continue
            if name in module and name not in local:
                found.append(f"{node.lineno} {name}")

    for node in module_nodes:
        if isinstance(node, _SCOPES):
            visit(node, set())
    return found


def test_state_check_flags_every_kind_of_module_state_write():
    source = """
import functools
from functools import lru_cache
_CACHE = {}
_SEEN = []
COUNT = 0
import numpy as np

@functools.cache
def a(x):
    global COUNT
    _CACHE[x] = 1
    _SEEN.append(x)
    a.calls = 1

def b(_CACHE, y):
    _CACHE[y] = 2  # a parameter, not the module's dict
    seen = _SEEN
    def c():
        seen.append(1)  # an alias is not caught; names are
        _SEEN.clear()
        np.sort(seen)
        np.pi = 3
    return c
"""
    found = [entry.split(" ", 1)[1] for entry in _module_state_writes(ast.parse(source))]
    assert sorted(found) == sorted(
        ["functools.lru_cache", "functools.cache", "global COUNT", "_CACHE", "_SEEN", "a", "_SEEN", "np"]
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_keeps_no_state_across_calls(path):
    """Caches are owned by a run, not by module globals."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{entry}" for entry in _module_state_writes(tree)] == []


# functools' memoizers: a cache on a function or an instance outlives the run
# that filled it, as a module-level one does
_MEMO_NAMES = {"cache", "lru_cache", "cached_property"}


def test_memo_check_flags_every_spelling():
    source = """
import functools
import functools as ft
from functools import cache, lru_cache as memo, cached_property, reduce

@functools.cache
def a(x):
    return x

@ft.lru_cache(maxsize=None)
def b(x):
    return functools.reduce(max, x)

keep = functools.cached_property

class C:
    @cached_property
    def c(self):
        cache = {}
        return cache, reduce(max, [1]), functools.wraps(a)

    @memo
    def d(self):
        return cache(a)
"""
    found = _uses(ast.parse(source), _MEMO_NAMES)
    assert sorted((where, entry.split(" ", 1)[1]) for where, entry in found) == sorted([
        ("<module>", "import functools.cache, functools.lru_cache, functools.cached_property"),
        ("a", ".cache"),
        ("b", ".lru_cache"),
        ("<module>", ".cached_property"),
        ("C", "cache()"),
    ])


def test_no_module_memoizes():
    """Caches are owned by a run: no function or instance of the package
    keeps a result for a later call (``_uses`` is defined below)."""
    assert [f"{where}:{entry}" for where, entry in _package_uses(_MEMO_NAMES)] == []


# what reads the process environment: os's mappings and getter, and click's
# keywords that make an option default to a variable
_ENVIRONMENT_NAMES = {"environ", "environb", "getenv"}
_ENVIRONMENT_KEYWORDS = {"envvar", "auto_envvar_prefix"}


def _environment_reads(tree: ast.Module) -> list[str]:
    """Line and spelling of each attribute or ``from os`` import named
    ``environ``, ``environb`` or ``getenv``, and of each ``envvar=`` or
    ``auto_envvar_prefix=`` keyword."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT_NAMES:
            found.append(f"{node.lineno} .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{node.lineno} from os import {a.name}" for a in node.names if a.name in _ENVIRONMENT_NAMES]
        elif isinstance(node, ast.keyword) and node.arg in _ENVIRONMENT_KEYWORDS:
            found.append(f"{node.lineno} {node.arg}=")
    return found


def test_environment_check_flags_every_spelling():
    source = """
import os
import os as system
from os import environ, environb as raw, getenv, path
import click

def f():
    os.environ["A"]
    os.environb.get(b"A")
    os.getenv("A", "0")
    system.environ.copy()
    environ, raw, getenv("A")
    click.option("--res", envvar="A")
    main(auto_envvar_prefix="A")
    os.path.join("environ", "getenv")
    click.option("--seed", default=0)
"""
    found = [entry.split(" ", 1)[1] for entry in _environment_reads(ast.parse(source))]
    assert sorted(found) == sorted(
        ["from os import environ", "from os import environb", "from os import getenv",
         ".environ", ".environb", ".getenv", ".environ", "envvar=", "auto_envvar_prefix="]
    )


def test_no_module_reads_the_environment():
    """Every output depends on its command line and input files alone."""
    found = [
        f"{path.name}:{entry}"
        for path in SOURCES
        for entry in _environment_reads(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


# multi-dimensional index finders; np.unravel_index(np.flatnonzero(mask),
# mask.shape) gives the same indices in the same C order for less
_INDEX_FINDERS = {"nonzero", "argwhere"}


def _index_finder_calls(tree: ast.Module) -> list[str]:
    """Line and name of each call to ``nonzero`` or ``argwhere``, as a
    function, a numpy attribute or an array method."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _INDEX_FINDERS:
                found.append(f"{node.lineno} {name}")
    return found


def test_index_finder_check_flags_every_spelling():
    source = """
import numpy as np
from numpy import argwhere, nonzero

def f(mask, grid):
    np.nonzero(mask)
    np.argwhere(mask)
    mask.nonzero()
    (grid.values < 0).nonzero()
    nonzero(mask)
    argwhere(mask)
    np.flatnonzero(mask)
    np.count_nonzero(mask)
    return np.unravel_index(np.flatnonzero(mask), mask.shape)
"""
    found = [entry.split(" ", 1)[1] for entry in _index_finder_calls(ast.parse(source))]
    assert found == ["nonzero", "argwhere", "nonzero", "nonzero", "nonzero", "argwhere"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_finds_indices_with_flatnonzero(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{entry}" for entry in _index_finder_calls(tree)] == []


# numpy's entry points to BLAS products, the ``@`` operator among them
_BLAS_NAMES = {"@", "dot", "vdot", "inner", "matmul", "einsum", "tensordot", "linalg"}
# the product that stays, and why: embed_shape pools by elementwise float64
# sums, and only latent_distance's norm is left, on the ROADMAP, as fixing it
# moves every report
_BLAS_EXEMPT = {"engine.latent_distance"}
# library calls that round as the host's numpy or libm build does: no angle
# is taken anywhere, and hypot only in the extrusion formula's corner
_LIBM_NAMES = {"arctan2", "atan2", "hypot"}
_HYPOT_USERS = {"kernel._field", "kernel._compose"}


def _uses(tree: ast.Module, names: set[str]) -> list[tuple[str, str]]:
    """(top-level definition, line and spelling) of each attribute named in
    ``names``, each call of such a bare name, each import of a dotted name
    with such a part, and, where "@" is among them, each ``@`` or ``@=``."""
    found = []
    for stmt in tree.body:
        where = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult) and "@" in names:
                spelling = "@=" if isinstance(node, ast.AugAssign) else "@"
            elif isinstance(node, ast.Attribute) and node.attr in names:
                spelling = f".{node.attr}"
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in names:
                spelling = f"{node.func.id}()"
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                dotted = (".".join(filter(None, (getattr(node, "module", None), a.name))) for a in node.names)
                hits = [name for name in dotted if names & set(name.split("."))]
                if not hits:
                    continue
                spelling = f"import {', '.join(hits)}"
            else:
                continue
            found.append((where, f"{node.lineno} {spelling}"))
    return found


def _package_uses(names: set[str]) -> list[tuple[str, str]]:
    """``_uses`` over every module of the package, each definition named
    ``module.definition``."""
    return [
        (f"{path.stem}.{where}", entry)
        for path in SOURCES
        for where, entry in _uses(ast.parse(path.read_text(), filename=str(path)), names)
    ]


def test_blas_check_flags_every_spelling():
    source = """
import numpy as np
import numpy.linalg
from numpy import dot as d, einsum, sqrt
from numpy.linalg import norm
from scipy import linalg

def f(a, b, rows):
    a @ b
    a @= b
    np.dot(a, b)
    a.dot(b)
    np.vdot(a, b)
    np.inner(a, b)
    np.matmul(a, b)
    np.einsum("i,i", a, b)
    np.tensordot(a, b)
    np.linalg.norm(a)
    inner(a, b)
    dot = a[0] * b[0] + a[1] * b[1]
    inner = rows[1:]
    return np.sqrt(dot) * inner, a * b, np.sum(a), np.add(a, b)

class C:
    def g(self, a):
        return a.T @ a
"""
    found = _uses(ast.parse(source), _BLAS_NAMES)
    assert sorted((where, entry.split(" ", 1)[1]) for where, entry in found) == sorted([
        ("<module>", "import numpy.linalg"),
        ("<module>", "import numpy.dot, numpy.einsum"),
        ("<module>", "import numpy.linalg.norm"),
        ("<module>", "import scipy.linalg"),
        ("f", "@"),
        ("f", "@="),
        ("f", ".dot"),
        ("f", ".dot"),
        ("f", ".vdot"),
        ("f", ".inner"),
        ("f", ".matmul"),
        ("f", ".einsum"),
        ("f", ".tensordot"),
        ("f", ".linalg"),
        ("f", "inner()"),
        ("C", "@"),
    ])


def test_no_product_goes_through_blas():
    """Every product in the package is written out as a fixed-order
    elementwise expression, so its rounding is numpy's elementwise
    arithmetic on every host, but in exactly the exempt places."""
    found = _package_uses(_BLAS_NAMES)
    assert [f"{where}:{entry}" for where, entry in found if where not in _BLAS_EXEMPT] == []
    assert {where for where, _ in found} == _BLAS_EXEMPT


def test_libm_check_flags_every_spelling():
    source = """
import math
import numpy as np
from math import atan2 as angle, sqrt
from numpy import arctan2, arctan, hypot

def f(x, y):
    np.arctan2(y, x)
    math.atan2(y, x)
    arctan2(y, x)
    np.hypot(x, y)
    math.hypot(x, y)
    hypot(x, y)
    x.hypot
    atan2 = np.arctan(y / x)
    hypot = math.sqrt(x * x + y * y)
    return atan2, hypot, np.sqrt(x), np.arctan(x), angle(y, x)

class C:
    def g(self, x, y):
        return np.hypot(x, y)
"""
    found = _uses(ast.parse(source), _LIBM_NAMES)
    assert sorted((where, entry.split(" ", 1)[1]) for where, entry in found) == sorted([
        ("<module>", "import math.atan2"),
        ("<module>", "import numpy.arctan2, numpy.hypot"),
        ("f", ".arctan2"),
        ("f", ".atan2"),
        ("f", "arctan2()"),
        ("f", ".hypot"),
        ("f", ".hypot"),
        ("f", "hypot()"),
        ("f", ".hypot"),
        ("C", ".hypot"),
    ])


def test_no_angle_is_taken_and_hypot_only_in_the_extrusion_corner():
    """The profile layer's sign and sector tests are crossing counts and
    cross-product signs, so no module takes an angle; hypot, the last
    build-dependent call, stays in the extrusion formula alone."""
    found = _package_uses(_LIBM_NAMES)
    assert [f"{where}:{entry}" for where, entry in found if where not in _HYPOT_USERS or "atan" in entry] == []
    assert {where for where, _ in found} == _HYPOT_USERS


def _raised(tree: ast.Module) -> set[str]:
    """Names raised directly: ``raise Name(...)`` or ``raise Name``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised_by_name():
    """An error class no code raises is dead API; the base class is exempt."""
    errors = next(p for p in SOURCES if p.name == "errors.py")
    defined = [n.name for n in ast.parse(errors.read_text()).body if isinstance(n, ast.ClassDef)]
    raised = set().union(*(_raised(ast.parse(p.read_text(), filename=str(p))) for p in SOURCES))
    assert [name for name in defined if name != "CadfitError" and name not in raised] == []


# SegmentId's fields: sequence.py alone turns an id into a part of a sequence
_SEGMENT_FIELDS = {"pair", "loop", "prim"}


def _segment_addressing(tree: ast.Module) -> list[str]:
    """Line and spelling of each subscript indexed by a SegmentId field and
    of each ``SegmentId(...)`` call."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            fields = {n.attr for n in ast.walk(node.slice) if isinstance(n, ast.Attribute)} & _SEGMENT_FIELDS
            found += [f"{node.lineno} [.{name}]" for name in sorted(fields)]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "SegmentId":
                found.append(f"{node.lineno} SegmentId()")
    return found


def test_segment_addressing_check_flags_every_spelling():
    source = """
from cadfit import sequence
from cadfit.sequence import SegmentId, SegmentKind

def f(seq, seg, sid, rows):
    seq.pairs[seg.id.pair][0].loops[seg.id.loop].primitives[seg.id.prim]
    seq.pairs[sid.pair :]
    rows[0, sid.loop + 1]
    SegmentId(0, SegmentKind.PAIR)
    sequence.SegmentId(1, SegmentKind.EXTRUSION)
    seq.pairs[0][1]
    rows[seg.span[0]]
    ids: list[SegmentId] = [seg.id]
    return replace_segment(seq, sid, seg.part)
"""
    found = [entry.split(" ", 1)[1] for entry in _segment_addressing(ast.parse(source))]
    assert sorted(found) == sorted(["[.pair]", "[.loop]", "[.prim]", "[.pair]", "[.loop]", "SegmentId()", "SegmentId()"])


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "sequence.py"], ids=lambda p: p.name)
def test_only_sequence_addresses_segments(path):
    """Callers take parts and ids from segments() and rebuild with
    replace_segment; no module but sequence builds a SegmentId."""
    found = _segment_addressing(ast.parse(path.read_text(), filename=str(path)))
    assert [f"{path.name}:{entry}" for entry in found] == []
