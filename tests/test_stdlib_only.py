"""The runtime stays stdlib-only and keeps nothing it does not use: every
module that ``src/charform`` imports is charform itself or a module of the
standard library, every name an import binds is read somewhere in the
module, every private helper or attribute is read somewhere in
``src/charform``, and every public function or class is read there too or
is named in the README's library API.  Its runtime checks are explicit
raises: no ``assert`` statement, which ``python -O`` strips, stands in
``src/charform``.  Importing the CLI loads no record machinery
(``dataclasses``, which pulls in ``inspect``)."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "charform"


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


def _self_attributes(node) -> list:
    """The attribute names an assignment stores through ``self.<name> = ...``."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    elts = [e for t in targets for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
    return [
        e.attr
        for e in elts
        if isinstance(e, ast.Attribute) and isinstance(e.value, ast.Name) and e.value.id == "self"
    ]


def dead_private_names(sources: dict) -> set:
    """Private top-level functions, classes and constants, private methods,
    and private attributes stored through ``self._x = ...``, that no module
    of ``sources`` reads by name, by attribute or as a string such as
    ``getattr(obj, "_x")`` (a definition or a store is not a read), as
    ``module:name``."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    defined = set()
    read = set()
    for module, tree in trees.items():
        for node in tree.body:
            names = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [t.id for t in targets if isinstance(t, ast.Name)]
            defined.update((module, n) for n in names if n[:1] == "_" and n[:2] != "__")
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                stored = _self_attributes(node)
                defined.update((module, n) for n in stored if n[:1] == "_" and n[:2] != "__")
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return {f"{module}:{n}" for module, n in defined if n not in read}


def unread_public_names(sources: dict, documented: set) -> set:
    """Public top-level functions and classes that no module of ``sources``
    reads by name or by attribute and that ``documented`` does not name, as
    ``module:name``."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return {
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name[:1] != "_"
        and node.name not in read | documented
    }


def library_api() -> set:
    """The names that open a backquoted span under the README's
    ``## Library API`` (a call such as ``f(x)`` names f), each dotted name
    also by its parts."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    names = set(re.findall(r"`([A-Za-z_][\w.]*)", section))
    return names | {part for name in names for part in name.split(".")}


def assert_lines(source: str) -> list:
    """The line numbers of the ``assert`` statements."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


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


def test_guard_flags_dead_private_helpers():
    a = "\n".join([
        "_USED = 1",
        "_UNUSED: int = 2",
        "def _helper():",
        "    return _USED",
        "def _dead():",
        "    pass",
        "class _Base:",
        "    def __init__(self):",
        "        self._live()",
        "        self._kept, self._left = 1, 2",
        "        self._named: int = 3",
        "        self._bumped = 4",
        "        self._bumped += 1",
        "        self.__mangled = 5",
        "        self.public = 6",
        "    def _live(self):",
        "        return self._kept",
        "    def _dead_method(self):",
        "        pass",
        "class _Gone:",
        "    pass",
        "class Public(_Base):",
        "    pass",
    ])
    b = "from .a import _helper\n\ndef public(x):\n    return _helper(), getattr(x, '_named')"
    assert dead_private_names({"a.py": a, "b.py": b}) == {
        "a.py:_UNUSED", "a.py:_dead", "a.py:_dead_method", "a.py:_Gone", "a.py:_left",
        "a.py:_bumped",
    }


def test_guard_flags_unread_public_names():
    a = "\n".join([
        "def used():",
        "    pass",
        "def documented():",
        "    pass",
        "def dead():",
        "    return used()",
        "class Record:",
        "    pass",
        "class Dead:",
        "    def method(self):",
        "        pass",
        "def _private():",
        "    pass",
        "DEAD = 1",
    ])
    b = "from . import a\n\ndef main(x: a.Record):\n    return x.method()"
    assert unread_public_names({"a.py": a, "b.py": b}, {"documented"}) == {
        "a.py:dead", "a.py:Dead", "b.py:main",
    }


def test_guard_flags_assert_statements():
    lines = [
        "def f(x):",
        "    assert x, 'message'",
        "    if not x:",
        "        raise AssertionError('kept under -O')",
        "class C:",
        "    def g(self):",
        "        assert self.x == 1",
        "# assert in a comment",
        "text = 'assert in a string'",
    ]
    assert assert_lines("\n".join(lines)) == [2, 7]


def test_runtime_imports_are_stdlib_or_charform():
    foreign = {name: foreign_imports(src) for name, src in _sources().items()}
    assert not {name: mods for name, mods in foreign.items() if mods}


def test_runtime_imports_are_used():
    unused = {name: unused_imports(src) for name, src in _sources().items()}
    assert not {name: names for name, names in unused.items() if names}


def test_private_helpers_are_read():
    assert not dead_private_names(_sources())


def test_runtime_has_no_assert_statements():
    found = {name: assert_lines(src) for name, src in _sources().items()}
    assert not {name: lines for name, lines in found.items() if lines}


def test_public_names_are_read_or_documented():
    api = library_api()
    assert {"check_pi3_decomposability", "Mat", "Quat", "gen"} <= api
    assert not unread_public_names(_sources(), api)


def test_importing_the_cli_loads_no_record_machinery():
    # a fresh interpreter without site, so only charform's own imports count
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import charform.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
