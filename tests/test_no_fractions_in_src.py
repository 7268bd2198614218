"""The compile path runs on Python ints: no module under ``src/repro``
imports ``fractions``, ``FracMat`` or the test oracles.

The one exception is ``linalg/intmat.py``, which imports ``Fraction``
to accept integral ``Fraction`` entries on input (and reject the
others).  Standard library only (``ast``); imports inside functions
count too.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: ``(module path under src/repro, imported module, imported name)``
ALLOWED = {("linalg/intmat.py", "fractions", "Fraction")}


def rational_imports(source: str):
    """``(lineno, module, name)`` of every import of ``fractions``,
    ``FracMat`` or an ``oracles`` module in ``source``; ``name`` is
    ``None`` for a plain ``import``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "fractions" or "oracles" in parts:
                    out.append((node.lineno, alias.name, None))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            parts = module.split(".")
            for alias in node.names:
                if (
                    parts[0] == "fractions"
                    or "oracles" in parts
                    or alias.name in ("FracMat", "oracles")
                ):
                    out.append((node.lineno, module, alias.name))
    return sorted(out)


def test_scanner_flags_rational_imports():
    source = (
        "import fractions\n"
        "from fractions import Fraction\n"
        "from ..linalg import FracMat, IntMat\n"
        "from tests.oracles.linalg import rank\n"
        "from tests import oracles\n"
        "import math\n"
        "def f():\n"
        "    from fractions import Fraction as F\n"
    )
    assert rational_imports(source) == [
        (1, "fractions", None),
        (2, "fractions", "Fraction"),
        (3, "linalg", "FracMat"),
        (4, "tests.oracles.linalg", "rank"),
        (5, "tests", "oracles"),
        (8, "fractions", "Fraction"),
    ]


def test_src_imports_no_rational_arithmetic():
    found = set()
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for line, module, name in rational_imports(path.read_text()):
            if (rel, module, name) in ALLOWED:
                found.add((rel, module, name))
            else:
                offenders.append(f"{rel}:{line}: {module} {name or ''}".rstrip())
    assert not offenders, "rational arithmetic imported in src:\n" + "\n".join(
        offenders
    )
    # the exemption must still be needed, or it goes
    assert found == ALLOWED
