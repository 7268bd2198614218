"""No module under ``src/repro``, ``benchmarks/`` or ``examples/`` keeps
an unused top-level import.

Standard library only (``ast``): every name a non-``__init__`` module
binds with a top-level ``import`` / ``from ... import`` must be read
somewhere in that module — as a name, inside a string annotation, or
through ``__all__``.  Package ``__init__`` files are re-export lists
and are skipped.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def unused_imports(source: str):
    """``(lineno, name)`` of every top-level import of ``source`` that
    the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as "OrderedDict[Tuple, int]"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(
                n.id for n in ast.walk(expr) if isinstance(n, ast.Name)
            )
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in bound.items() if name not in used
    )


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Dict, List, Tuple\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "CACHE: 'Dict[str, int]' = {}\n"
        "def f(a: List[int]):\n"
        "    return np.zeros(len(a))\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Tuple")]


def _offenders(tree: pathlib.Path):
    modules = sorted(p for p in tree.rglob("*.py") if p.name != "__init__.py")
    assert modules
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path.read_text())
    ]


def test_src_has_no_unused_top_level_imports():
    offenders = _offenders(SRC)
    assert offenders == [], "unused imports:\n" + "\n".join(offenders)


@pytest.mark.parametrize("tree", ["benchmarks", "examples"])
def test_scripts_have_no_unused_top_level_imports(tree):
    offenders = _offenders(ROOT / tree)
    assert offenders == [], "unused imports:\n" + "\n".join(offenders)
