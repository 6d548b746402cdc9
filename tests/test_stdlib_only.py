"""The runtime stays stdlib-only: every module that ``src/charform`` imports
is charform itself or a module of the standard library."""

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


def test_guard_flags_third_party_imports():
    lines = ["import random", "import sympy.core", "from hypothesis import given"]
    source = "\n".join(lines + ["from . import linalg"])
    assert foreign_imports(source) == {"sympy", "hypothesis"}


def test_runtime_imports_are_stdlib_or_charform():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1
    foreign = {p.name: foreign_imports(p.read_text(encoding="utf-8")) for p in paths}
    assert not {name: mods for name, mods in foreign.items() if mods}
