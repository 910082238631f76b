"""Every name a cselab module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import cselab

SRC = Path(cselab.__file__).parent


def unused_imports(source: str):
    """The names bound by import statements that the module never reads,
    other than those of `from __future__ import ...`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / f"{module}.py").read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from .rationals import exact_param, pair_text as pt\n"
              "def f(t):\n"
              "    return math.pi * exact_param(t)\n")
    assert unused_imports(source) == [(2, "os"), (3, "pt")]
