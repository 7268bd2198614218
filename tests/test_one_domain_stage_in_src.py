"""One domain enumeration per scheduled nest.

The domain points, schedule times ``θ·I`` and subscripts ``F·I + c`` of
a scheduled nest are one fact, built by ``repro.ir.domain.domain_stage``
and read by both the legality checker and the runtime extraction.  So:

* no module under ``src/repro`` calls ``point_matrix`` outside
  ``domain_stage``;
* ``ir/legality.py`` proves no int64 bound and runs no affine matmul of
  its own: it calls none of ``int64_proven``, ``affine_rows``,
  ``point_matrix``, ``to_numpy``, ``matmul`` or ``dot``, uses no ``@``
  operator and does not read ``INT64_SAFE``.

Standard library only (``ast``); uses inside nested functions count.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: the one ``(module, enclosing function)`` that may enumerate a domain
ENUMERATOR = ("ir/domain.py", "domain_stage")

#: names whose use in legality would be a proof or matmul of its own
STAGE_WORK = {
    "int64_proven",
    "affine_rows",
    "point_matrix",
    "to_numpy",
    "matmul",
    "dot",
    "INT64_SAFE",
}


def uses(source: str):
    """``(lineno, enclosing qualified name, what)`` for every call of a
    name, every other read of a :data:`STAGE_WORK` name and every ``@``
    in ``source``; the enclosing name is ``""`` at module level."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "attr", None) or getattr(func, "id", None)
                if name is not None:
                    out.append((child.lineno, scope, name))
            elif isinstance(child, (ast.Name, ast.Attribute)):
                name = getattr(child, "attr", None) or getattr(child, "id", None)
                if name in STAGE_WORK:
                    out.append((child.lineno, scope, name))
            elif isinstance(child, ast.alias) and child.name in STAGE_WORK:
                out.append((node.lineno, scope, child.name))
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(
                child.op, ast.MatMult
            ):
                out.append((child.lineno, scope, "@"))
            visit(child, inner)

    visit(ast.parse(source), "")
    return sorted(set(out))


def test_scanner_flags_calls_names_and_matmuls():
    source = (
        "from .domain import int64_proven\n"
        "def f(stmt, params, theta):\n"
        "    pts = stmt.domain.point_matrix(params)\n"
        "    return pts @ theta.to_numpy(pts.dtype).T\n"
        "class C:\n"
        "    def g(self, x):\n"
        "        x @= x\n"
        "        return domain.INT64_SAFE\n"
    )
    found = [u for u in uses(source) if u[2] in STAGE_WORK | {"@"}]
    assert found == [
        (1, "", "int64_proven"),
        (3, "f", "point_matrix"),
        (4, "f", "@"),
        (4, "f", "to_numpy"),
        (7, "C.g", "@"),
        (8, "C.g", "INT64_SAFE"),
    ]


def test_only_the_domain_stage_enumerates():
    found, offenders = set(), []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for line, scope, what in uses(path.read_text()):
            if what != "point_matrix":
                continue
            if (rel, scope) == ENUMERATOR:
                found.add((rel, scope))
            else:
                offenders.append(f"{rel}:{line}: {scope or '<module>'}")
    assert not offenders, "point_matrix called in src:\n" + "\n".join(offenders)
    assert found == {ENUMERATOR}


def test_legality_reads_the_stage():
    source = (SRC / "ir" / "legality.py").read_text()
    offenders = [
        f"ir/legality.py:{line}: {scope or '<module>'} -> {what}"
        for line, scope, what in uses(source)
        if what in STAGE_WORK or what == "@"
    ]
    assert not offenders, "legality works the stage itself:\n" + "\n".join(
        offenders
    )
    assert "domain_stage" in {what for _, _, what in uses(source)}
