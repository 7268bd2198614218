"""The heuristic on growing statement chains.

Not a paper artefact — a library health check: the two-step heuristic
must keep localizing every access of a pipeline of 4 to 24 statements
(the access graph, Edmonds and the exact linear algebra are all
polynomial; their timing belongs to ``perfbench/``).
"""

import random

import pytest

from repro.alignment import two_step_heuristic
from repro.ir import NestBuilder
from repro.linalg import IntMat


def chain_nest(n_stmts: int):
    """A pipeline of statements x0 -> x1 -> ... with full-rank square
    accesses: every communication can be made local, so the heuristic
    exercises the whole graph machinery."""
    rng = random.Random(n_stmts)
    b = NestBuilder(f"chain{n_stmts}")
    for i in range(n_stmts + 1):
        b.array(f"x{i}", 2)
    mats = [
        IntMat([[1, 1], [0, 1]]),
        IntMat([[1, 0], [1, 1]]),
        IntMat([[0, 1], [1, 0]]),
        IntMat([[1, -1], [1, 0]]),
    ]
    for i in range(n_stmts):
        f_r = mats[rng.randrange(len(mats))]
        f_w = mats[rng.randrange(len(mats))]
        b.statement(
            f"S{i}",
            [("i", 0, "N"), ("j", 0, "N")],
            writes=[(f"x{i + 1}", f_w.tolist(), None, f"W{i}")],
            reads=[(f"x{i}", f_r.tolist(), None, f"R{i}")],
        )
    return b.build()


@pytest.mark.parametrize("n_stmts", [4, 8, 16])
def test_scaling_chain(n_stmts):
    nest = chain_nest(n_stmts)
    result = two_step_heuristic(nest, m=2)
    # a chain is always fully localizable
    assert len(result.alignment.local_labels) == 2 * n_stmts


def test_scaling_branching_only():
    from repro.alignment import build_access_graph, maximum_branching

    nest = chain_nest(24)
    ag = build_access_graph(nest, 2)

    chosen = maximum_branching(ag.graph)
    assert len(chosen) >= 24
