"""One process backend in ``src``: the supervised worker pool.

Parallel campaigns run on long-lived supervised workers
(``repro/campaign/executors/resilient.py``), whose per-task crash
attribution, heartbeat and hang kill a stock process pool lacks.  No
module under ``src/repro`` may import ``concurrent.futures`` or use
``ProcessPoolExecutor`` or ``multiprocessing.Pool`` (``ctx.Pool``
included), so a second process backend with other crash semantics
cannot come back unnoticed.

Standard library only (``ast``).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: names whose use is a second process backend
BANNED_NAMES = {"ProcessPoolExecutor", "Pool"}


def second_backend_uses(source: str):
    """``(lineno, what)`` of every import of ``concurrent.futures`` or
    ``multiprocessing.pool`` and every use of a :data:`BANNED_NAMES`
    name in ``source``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(
                    ("concurrent.futures", "multiprocessing.pool")
                ):
                    out.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {a.name for a in node.names}
            if (
                module.startswith(("concurrent.futures", "multiprocessing.pool"))
                or (module == "concurrent" and "futures" in names)
                or (module == "multiprocessing" and "pool" in names)
            ):
                out.append((node.lineno, module))
            for name in sorted(names & BANNED_NAMES):
                out.append((node.lineno, name))
        elif isinstance(node, ast.Name) and node.id in BANNED_NAMES:
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in BANNED_NAMES:
            out.append((node.lineno, node.attr))
    return sorted(set(out))


def test_scanner_flags_every_spelling():
    source = (
        "import concurrent.futures as cf\n"
        "from concurrent import futures\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import multiprocessing\n"
        "def f(ctx):\n"
        "    multiprocessing.Pool(2)\n"
        "    ctx.Pool(2)\n"
        "    return cf.ProcessPoolExecutor()\n"
    )
    assert [line for line, _ in second_backend_uses(source)] == [
        1, 2, 3, 3, 6, 7, 8,
    ]


def test_scanner_passes_the_supervised_pieces():
    source = (
        "import multiprocessing\n"
        "from multiprocessing.connection import wait\n"
        "ctx = multiprocessing.get_context('fork')\n"
        "a, b = ctx.Pipe()\n"
        "p = ctx.Process(target=print)\n"
    )
    assert second_backend_uses(source) == []


def test_no_second_process_backend_in_src():
    found = {
        str(path.relative_to(SRC)): uses
        for path in sorted(SRC.rglob("*.py"))
        if (uses := second_backend_uses(path.read_text()))
    }
    assert found == {}, found
