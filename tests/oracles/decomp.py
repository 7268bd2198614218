"""Breadth-first reference for the elementary-word search.

``repro.decomp.shortest_decomposition`` meets in the middle under a
state budget.  This is the plain BFS it must agree with, word for word,
whenever the budget is not hit: words grow one factor at a time from
the identity, each level keeps the first word reaching every
``(product, last kind)`` and drops products past
``(max|T| + 2) (coeff_bound + 1)``, and the first word equal to ``T``
wins.  Its frontier grows as ``coeff_bound^len``, so keep it to small
bounds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.decomp import L, U
from repro.linalg import IntMat


def shortest_decomposition_bfs(
    t: IntMat, max_len: int = 6, coeff_bound: int = 8
) -> Optional[List[IntMat]]:
    ident = IntMat.identity(2)
    if t == ident:
        return []
    bound = (t.max_abs() + 2) * (coeff_bound + 1)
    frontier: Dict[Tuple[IntMat, Optional[str]], List[IntMat]] = {
        (ident, None): []
    }
    for _ in range(max_len):
        nxt: Dict[Tuple[IntMat, Optional[str]], List[IntMat]] = {}
        for (mat, last), word in frontier.items():
            for c in range(-coeff_bound, coeff_bound + 1):
                if c == 0:
                    continue
                for kind, fac in (("L", L(c)), ("U", U(c))):
                    if kind == last:
                        continue
                    prod = mat @ fac
                    if prod == t:
                        return word + [fac]
                    key = (prod, kind)
                    if key not in nxt and prod.max_abs() <= bound:
                        nxt[key] = word + [fac]
        frontier = nxt
        if not frontier:
            break
    return None
