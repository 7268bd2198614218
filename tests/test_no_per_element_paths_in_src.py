"""No production path runs a per-element reference.

The per-element twins — ``MappedProgram.comm_events_python``,
``Statement.iteration_domain`` and ``Domain.enumerate_points`` — are
test oracles.  No module under ``src/repro`` may call them, except the
oracle chain itself: ``execute_python`` calls ``comm_events_python``,
which walks ``iteration_domain``, which walks ``enumerate_points``.
No module under ``src/repro`` may import the test oracles either.

Route gathers are per-element too: ``RouteCache.link_ids`` builds or
looks up one message's route.  The contention kernel prices every phase
from interval sums without it, so its one caller is the event-driven
simulator (``EventSimulator.run``), which walks each message's links.

Standard library only (``ast``); calls and imports inside nested
functions count too.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

PER_ELEMENT = {
    "comm_events_python",
    "iteration_domain",
    "enumerate_points",
    "link_ids",
}

#: ``(module path under src/repro, enclosing function, called name)``
ALLOWED = {
    ("runtime/executor.py", "execute_python", "comm_events_python"),
    ("runtime/mapping.py", "MappedProgram.comm_events_python", "iteration_domain"),
    ("ir/loopnest.py", "Statement.iteration_domain", "enumerate_points"),
    ("machine/eventsim.py", "EventSimulator.run", "link_ids"),
}


def per_element_uses(source: str):
    """``(lineno, enclosing qualified name, what)`` of every call to a
    :data:`PER_ELEMENT` name and every import of an ``oracles`` module
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
                if name in PER_ELEMENT:
                    out.append((child.lineno, scope, name))
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    if "oracles" in alias.name.split("."):
                        out.append((child.lineno, scope, alias.name))
            elif isinstance(child, ast.ImportFrom):
                module = child.module or ""
                names = [a.name for a in child.names]
                if "oracles" in module.split(".") or "oracles" in names:
                    out.append((child.lineno, scope, module))
            visit(child, inner)

    visit(ast.parse(source), "")
    return sorted(out)


def test_scanner_flags_calls_and_oracle_imports():
    source = (
        "from tests.oracles.legality import schedule_violations_python\n"
        "def f(program, stmt):\n"
        "    program.comm_events_python()\n"
        "    return list(stmt.iteration_domain({}))\n"
        "class Domain:\n"
        "    def walk(self):\n"
        "        from tests import oracles\n"
        "        return enumerate_points(self)\n"
        "def g(program):\n"
        "    return program.comm_batches()\n"
        "def phase_time(mesh, messages):\n"
        "    cache = route_cache_for(mesh)\n"
        "    return [cache.link_ids(m.src, m.dst) for m in messages]\n"
    )
    assert per_element_uses(source) == [
        (1, "", "tests.oracles.legality"),
        (3, "f", "comm_events_python"),
        (4, "f", "iteration_domain"),
        (7, "Domain.walk", "tests"),
        (8, "Domain.walk", "enumerate_points"),
        (13, "phase_time", "link_ids"),
    ]


def test_src_runs_no_per_element_path():
    found = set()
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for line, scope, what in per_element_uses(path.read_text()):
            if (rel, scope, what) in ALLOWED:
                found.add((rel, scope, what))
            else:
                offenders.append(f"{rel}:{line}: {scope or '<module>'} -> {what}")
    assert not offenders, "per-element path used in src:\n" + "\n".join(
        offenders
    )
    # every exemption must still be needed, or it goes
    assert found == ALLOWED
