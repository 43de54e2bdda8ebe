"""Static checks on the package source: no module imports a name it never
uses, and no module defines a private name it never reads, so deleted code
leaves no dead import or orphaned helper behind."""

import ast
from pathlib import Path

import pytest

import gaugewalk

MODULES = sorted(Path(gaugewalk.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in the module but never
    read as a name nor listed in its __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .a import b, c as d\n__all__ = ['b']\n\ndef f():\n    import json\n    return np.pi\n")
    assert unused_imports(source) == ["d", "json", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(source: str) -> list[str]:
    """Module-level names with one leading underscore (functions, classes
    and assigned names) that the module never reads as a name."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(name for name in defined - read if name.startswith("_") and not name.startswith("__"))


def test_checker_finds_unread_private_names():
    source = ("import numpy as np\n_TABLE = {}\n_USED: int = 3\n__all__ = []\n\n"
              "def _orphan(y):\n    return y\n\ndef _helper(x):\n    return x + _USED\n\n"
              "class _Hidden:\n    def _method(self):\n        return _TABLE\n\n"
              "def public():\n    _local = 1\n    return _helper(_local)\n")
    assert unread_private_names(source) == ["_Hidden", "_orphan"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []
