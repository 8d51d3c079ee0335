"""Static checks: every name a cadfit module imports is used in that module,
every module-level private name is referenced in the module defining it, and
every public function and class has a caller outside the tests.

Standard library only, so it runs wherever the tests do; no linter needed.
"""

import ast
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
    """Callers take parts from segments() and rebuild with replace_segment;
    the kernel alone names SegmentIds, the owners of its attribution fold."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _segment_addressing(tree)
    if path.name == "kernel.py":
        found = [entry for entry in found if not entry.endswith("SegmentId()")]
    assert [f"{path.name}:{entry}" for entry in found] == []
