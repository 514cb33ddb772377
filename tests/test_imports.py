"""Every module-level import of the library is read by its module, and
every private top-level name is used somewhere in the library."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import hl_lab

MODULES = sorted(p.name for p in Path(hl_lab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unread_imports(source):
    """Names bound by the module's top-level imports that it never loads."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read and name != "annotations"]


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from dataclasses import dataclass, field as f\n"
              "def g(x: dataclass):\n    return os.path.join(x)\n")
    assert unread_imports(source) == ["f"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_import(module):
    source = (Path(hl_lab.__file__).parent / module).read_text(encoding="utf-8")
    assert unread_imports(source) == []


def _names(node):
    """Each reference to a name inside ``node``: loads, attributes, imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _private_definitions(tree):
    """Top-level private functions, classes and constants, with their nodes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def unreferenced_privates(sources):
    """Private top-level names no module names outside their own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = Counter(name for tree in trees.values() for name in _names(tree))
    return sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name, node in _private_definitions(tree)
                  if everywhere[name] == Counter(_names(node))[name])


def test_unreferenced_privates_are_found():
    sources = {"a.py": ("_LIMIT = 3\n_SPARE = 4\n"
                        "def _loop(n):\n    return _loop(n - 1) if n else _LIMIT\n"
                        "def _used():\n    return 1\n"
                        "class __Dunder:\n    pass\n"),
               "b.py": "from .a import _used\n"}
    assert unreferenced_privates(sources) == ["a.py:_SPARE", "a.py:_loop"]


def test_every_private_helper_is_used_in_the_library():
    # uses from tests do not count: a helper only tests reach is dead code
    package = Path(hl_lab.__file__).parent
    sources = {p.name: p.read_text(encoding="utf-8") for p in package.glob("*.py")}
    assert unreferenced_privates(sources) == []
