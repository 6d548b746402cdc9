"""The runtime stays stdlib-only and imports nothing it does not use: every
module that ``src/charform`` imports is charform itself or a module of the
standard library, and every name an import binds is read somewhere in the
module."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "charform"


def foreign_imports(source: str) -> set:
    """Top-level names of the absolute imports outside charform and the stdlib."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return {n for n in names if n != "charform" and n not in sys.stdlib_module_names}


def unused_imports(source: str) -> set:
    """Names bound by imports (``__future__`` aside) that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _sources():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1
    return {p.name: p.read_text(encoding="utf-8") for p in paths}


def test_guard_flags_third_party_imports():
    lines = ["import random", "import sympy.core", "from hypothesis import given"]
    source = "\n".join(lines + ["from . import linalg"])
    assert foreign_imports(source) == {"sympy", "hypothesis"}


def test_guard_flags_unused_imports():
    lines = [
        "from __future__ import annotations",
        "import operator",
        "import os.path",
        "import random as rnd",
        "from typing import List, Optional",
        "from .fields import Fe, pmul",
        "def f(x: Fe) -> List[int]:",
        "    return [pmul(x, x, None), rnd.random(), os.path.sep]",
    ]
    assert unused_imports("\n".join(lines)) == {"operator", "Optional"}


def test_runtime_imports_are_stdlib_or_charform():
    foreign = {name: foreign_imports(src) for name, src in _sources().items()}
    assert not {name: mods for name, mods in foreign.items() if mods}


def test_runtime_imports_are_used():
    unused = {name: unused_imports(src) for name, src in _sources().items()}
    assert not {name: names for name, names in unused.items() if names}
