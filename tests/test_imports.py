"""Every module-level import of the library is read by its module."""

import ast
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
