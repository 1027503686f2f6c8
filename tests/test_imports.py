"""Every imported name in `src/`, `tests/` and `scripts/` is used, and
every top-level definition in `src/lucassq` is read.

An `ast` walk stands in for a linter: a name bound by `import` or
`from ... import` must be read somewhere in its module, be listed in the
module's `__all__`, or appear in a string annotation.  `from __future__`
imports and star imports bind no checked name.  A top-level function,
class or constant of the package, and a public method or property of a
top-level class, must be read, as a name or an attribute, somewhere in
`src/`, `tests/` or `scripts/` outside its own definition; dataclass
fields are records, not helpers, and are not checked.

The work of a census and of a generator certification imports no module
that costs time on its first use in a process (`numpy.ma`)."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import lucassq

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "scripts")


def _imported(tree: ast.Module) -> dict:
    """name -> line of every name an import statement binds."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                names.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def _annotation_names(tree: ast.Module) -> set:
    """Names read inside the module's string annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            args = node.args
            annotations += [a.annotation for a in
                            args.posonlyargs + args.args + args.kwonlyargs
                            + [args.vararg, args.kwarg] if a is not None]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    return {n.id for ann in annotations if ann is not None
            for c in ast.walk(ann)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)
            for n in ast.walk(ast.parse(c.value)) if isinstance(n, ast.Name)}


def _used(tree: ast.Module) -> set:
    """Names read in the module, named in `__all__`, or read inside a
    string annotation."""
    used = _annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                used.update(c.value for c in ast.walk(node.value)
                            if isinstance(c, ast.Constant)
                            and isinstance(c.value, str))
    return used


def _unused(source: str) -> list:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items()
                  if name not in used)


def test_checker_flags_and_spares():
    """The checker itself: what it must flag, and what it must not."""
    source = '''
from __future__ import annotations
import os
import os.path as osp
import collections.abc
from typing import Optional, List as L
from math import *
from fractions import Fraction
from decimal import Decimal
__all__ = ["Decimal"]
def f(x: "Optional[int]") -> L:
    return collections.abc.Sized
'''
    assert _unused(source) == [(3, "os"), (4, "osp"), (8, "Fraction")]


def test_no_unused_imports():
    files = sorted(p for d in CHECKED for p in (ROOT / d).rglob("*.py"))
    assert files
    unused = [f"{p.relative_to(ROOT)}:{line}: {name}" for p in files
              for line, name in _unused(p.read_text(encoding="utf-8"))]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _defined(tree: ast.Module) -> list:
    """(name, node) of every top-level function, class and constant,
    dunder names aside, and of every public method and property of a
    top-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(m.name, m) for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not m.name.startswith("_")]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for t in getattr(node, "targets", None) or [node.target]:
                out += [(n.id, node) for n in ast.walk(t)
                        if isinstance(n, ast.Name)]
    return [(name, node) for name, node in out if not name.startswith("__")]


def _reads(node: ast.AST) -> Counter:
    """How often each name is loaded or read as an attribute within the
    node, or read in one of its string annotations."""
    return Counter([n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
                   + [n.attr for n in ast.walk(node)
                      if isinstance(n, ast.Attribute)]
                   + list(_annotation_names(node)))


def _unread(sources: dict) -> list:
    """(file, line, name) of the package definitions in `sources` (path ->
    text, package files under src/lucassq) that no source reads outside
    the definition itself."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    reads = sum(map(_reads, trees.values()), Counter())
    return sorted((path, node.lineno, name)
                  for path, tree in trees.items()
                  if path.startswith("src/lucassq/")
                  for name, node in _defined(tree)
                  if reads[name] == _reads(node)[name])


def test_dead_definition_checker():
    """The checker itself: a definition that is only bound, only named in
    `__all__` or only read in its own body is flagged, public methods and
    properties included; a read by name, by attribute or in a string
    annotation, from any of the sources, is not.  Dunder and private
    methods are not checked."""
    package = '''
import dataclasses
LIMIT = 3
UNUSED, PAIRED = 1, 2
_helper = None
@dataclasses.dataclass
class Record:
    field: int = LIMIT
    def __len__(self): return 0
    def _private(self): pass
    def read(self): return self.field
    def unread(self): pass
    @property
    def unread_property(self): return self.read()
def dead(): pass
def recursive(n): return recursive(n - 1) if n else 0
def used(x: "Record"): return x
def by_attribute(): pass
def by_test(): pass
__all__ = ["dead"]
'''
    test = '''
from lucassq import mod
mod.by_attribute()
def test(): by_test(); used(PAIRED)
'''
    assert _unread({"src/lucassq/mod.py": package,
                    "tests/test_mod.py": test}) == [
        ("src/lucassq/mod.py", 4, "UNUSED"),
        ("src/lucassq/mod.py", 5, "_helper"),
        ("src/lucassq/mod.py", 12, "unread"),
        ("src/lucassq/mod.py", 14, "unread_property"),
        ("src/lucassq/mod.py", 15, "dead"),
        ("src/lucassq/mod.py", 16, "recursive")]


def test_no_dead_definitions():
    files = sorted(p for d in CHECKED for p in (ROOT / d).rglob("*.py"))
    unread = _unread({p.relative_to(ROOT).as_posix():
                      p.read_text(encoding="utf-8") for p in files})
    assert not unread, "unread definitions:\n" + "\n".join(
        f"{path}:{line}: {name}" for path, line, name in unread)


def test_work_imports_no_numpy_ma():
    """`numpy.ma` takes 17-21 ms to import, which a fresh process would pay
    inside the work; `np.unique` is one call that imports it."""
    code = """if True:
        import sys
        import lucassq.cli as cli, lucassq.heights as heights, lucassq.padic
        from lucassq.curves import CURVE_BY_ID, catalog
        catalog()
        cli.cmd_search(5, 5, 20, 1)
        heights.certify_generators(CURVE_BY_ID["E10"])
        print("numpy.ma" in sys.modules)
    """
    src = str(Path(lucassq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
