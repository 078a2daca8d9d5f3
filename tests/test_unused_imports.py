"""Every module-level import in ``src/`` is used by the module that makes it.

No linter ships with the project, so this walks each module's AST. A name
counts as used when the module loads it or names it inside a string
annotation. ``__init__.py`` files re-export what they import, so they are
exempt; so are imports under ``if TYPE_CHECKING:``, which are not at
module level.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")


def _module_imports(tree):
    """Yield ``(bound name, line)`` for each import at module level."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str):
    """``(name, line)`` of each module-level import the module never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(name, line) for name, line in _module_imports(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_and_honours_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import TYPE_CHECKING, List, Optional\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    List = x\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [("osp", 3), ("List", 4)]
