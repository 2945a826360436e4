"""Dead names in the library: imports a module never reads, function
locals assigned but never read, and private module-level functions and
constants that no library module names.  A small stand-in for pyflakes,
built on ``ast`` alone.  ``__init__.py`` (re-exports), ``from __future__
import annotations`` and the name ``_`` are exempt from the first two
checks.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "robinson_lab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
EXEMPT = {"_"}


def _loads(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_imports(tree):
    """(line, name) of every module-level import binding the module never reads."""
    read = _loads(tree)
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and name not in EXEMPT:
                    found.append((stmt.lineno, name))
    return found


def _own_stores(func):
    """Names a function binds in its own scope, with their first line."""
    stores = {}
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue                       # a nested scope binds its own names
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores.setdefault(node.id, node.lineno)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            stores.setdefault(node.name, node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return stores


def unread_locals(tree):
    """(line, function, name) of every local a function assigns and never
    reads, nested functions' reads included (they see it as a closure)."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared = {name for n in ast.walk(func) if isinstance(n, (ast.Global, ast.Nonlocal))
                    for name in n.names}
        read = _loads(func)
        for name, line in _own_stores(func).items():
            if name not in read and name not in declared and name not in EXEMPT:
                found.append((line, func.name, name))
    return sorted(found)


def _names(tree, skip):
    """Every name ``tree`` reads as a variable, an attribute or an import,
    outside the node ``skip``."""
    names, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _unreferenced(trees, bound):
    """(module, line, name) of every private name that ``bound(stmt)`` lists
    for a module-level statement and that no tree in ``trees`` (a module
    name -> tree map) names outside that statement."""
    found = []
    for module, tree in trees.items():
        for stmt in tree.body:
            for name in bound(stmt):
                if (name.startswith("_") and not name.startswith("__")
                        and not any(name in _names(t, stmt) for t in trees.values())):
                    found.append((module, stmt.lineno, name))
    return found


def unreferenced_private_functions(trees):
    """Private module-level functions named nowhere outside their own body."""
    return _unreferenced(trees, lambda stmt: [stmt.name] if isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else [])


def unreferenced_private_constants(trees):
    """Private module-level constants named nowhere outside their assignment."""
    def targets(stmt):
        nodes = (stmt.targets if isinstance(stmt, ast.Assign)
                 else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        return [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
    return _unreferenced(trees, targets)


def test_the_checker_finds_both_kinds():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from math import pi, tau\n"
        "def f(a):\n"
        "    b, c = a\n"
        "    for _ in range(2):\n"
        "        d = 1\n"
        "    e = 2\n"
        "    def g():\n"
        "        return e + tau\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as exc:\n"
        "        pass\n"
        "    return c, g, os\n")
    assert unused_imports(tree) == [(2, "system"), (3, "pi")]
    assert unread_locals(tree) == [(5, "f", "b"), (7, "f", "d"), (13, "f", "exc")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []
    assert unread_locals(tree) == []


def test_the_checker_finds_unreferenced_private_functions():
    trees = {
        "a": ast.parse(
            "def _imported(): pass\n"
            "def _by_attribute(): pass\n"
            "def _self_only(n):\n"
            "    return _self_only(n - 1) if n else 0\n"
            "def _dead(): pass\n"
            "def __getattr__(name): pass\n"
            "def public(): return _local()\n"
            "def _local(): pass\n"),
        "b": ast.parse(
            "import a\n"
            "from a import _imported\n"
            "x = a._by_attribute\n"),
    }
    assert unreferenced_private_functions(trees) == [("a", 3, "_self_only"), ("a", 5, "_dead")]


def test_every_private_function_is_named_by_the_library():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_functions(trees) == []


def test_the_checker_finds_unreferenced_private_constants():
    trees = {
        "a": ast.parse(
            "_READ_HERE = 1\n"
            "_IMPORTED, _DEAD = 2, 3\n"
            "_ANNOTATED: int = 4\n"
            "_BY_ATTRIBUTE = 5\n"
            "__version__ = '1'\n"
            "PUBLIC = 6\n"
            "def f():\n"
            "    return _READ_HERE\n"),
        "b": ast.parse(
            "import a\n"
            "from a import _IMPORTED\n"
            "x = a._BY_ATTRIBUTE\n"),
    }
    assert unreferenced_private_constants(trees) == [("a", 2, "_DEAD"), ("a", 3, "_ANNOTATED")]


def test_every_private_constant_is_read_by_the_library():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_constants(trees) == []
