"""Every imported name in `src/`, `tests/` and `scripts/` is used.

An `ast` walk stands in for a linter: a name bound by `import` or
`from ... import` must be read somewhere in its module, be listed in the
module's `__all__`, or appear in a string annotation.  `from __future__`
imports and star imports bind no checked name."""

import ast
from pathlib import Path

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


def _used(tree: ast.Module) -> set:
    """Names read in the module, named in `__all__`, or read inside a
    string annotation."""
    used = set()
    annotations = []
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
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            args = node.args
            annotations += [a.annotation for a in
                            args.posonlyargs + args.args + args.kwonlyargs
                            + [args.vararg, args.kwarg] if a is not None]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for c in ast.walk(ann) if ann is not None else ():
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used.update(n.id for n in ast.walk(ast.parse(c.value))
                            if isinstance(n, ast.Name))
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
