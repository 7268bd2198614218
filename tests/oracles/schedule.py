"""Level-probing reference for schedule inference.

``repro.ir.infer_schedules`` finds the sequential outer depth in one
walk over the dependent access pairs with a monotone level.  This is
the scheduler it must agree with, schedule for schedule: probe
``outer = 1, 2, ...`` and, at each level, re-solve the stacked system
``F1 I1 - F2 I2 = c2 - c1, I1[j] = I2[j] (j < outer)`` for *every*
access pair, the first level at which no pair keeps a witness wins.
Nothing is memoized and no verdict of ``find_dependences`` is reused
beyond the dependence-free check.  :func:`dependent_within` is that
stacked per-pair test; ``repro.ir.dependence._dependent_at``, which
adds the equalities in the parameter space of the pair's own lattice,
must agree with it at every level.
"""

from __future__ import annotations

from typing import Dict

from repro.ir import (
    AccessKind,
    LoopNest,
    ScheduledNest,
    find_dependences,
    outer_sequential_schedules,
    trivial_schedules,
)
from repro.ir.dependence import _has_distinct_solution, domain_feasible
from repro.linalg import IntMat, solve_axb


def dependent_within(s1, a1, s2, a2, params: Dict[str, int], outer: int) -> bool:
    """Whether the pair keeps a witness with the first ``outer``
    indices of both instances equal (``outer <= min(depths)``), by
    re-solving the stacked system ``[F1 | -F2] x = c2 - c1, I1[j] =
    I2[j]`` and re-running the domain and distinct-instance tests."""
    eq_rows = []
    for j in range(outer):
        row = [0] * (s1.depth + s2.depth)
        row[j] = 1
        row[s1.depth + j] = -1
        eq_rows.append(row)
    full = IntMat(a1.F.hstack(-1 * a2.F).tolist() + eq_rows)
    rhs = [(a2.c - a1.c)[r, 0] for r in range(a1.F.nrows)] + [0] * outer
    sol = solve_axb(full, IntMat.col(rhs))
    if sol is None or not domain_feasible(sol, s1, s2, params):
        return False
    return not (s1 is s2 and a1 is a2) or _has_distinct_solution(sol, s1.depth)


def inner_loops_parallel(nest: LoopNest, params: Dict[str, int], outer: int) -> bool:
    """True when no access pair keeps a witness with the first
    ``outer`` indices of both instances equal (capped at each
    statement's depth)."""
    pairs = nest.all_accesses()
    for i, (s1, a1) in enumerate(pairs):
        for s2, a2 in pairs[i:]:
            if a1.array != a2.array:
                continue
            if a1.kind is AccessKind.READ and a2.kind is AccessKind.READ:
                continue
            k = min(outer, s1.depth, s2.depth)
            if dependent_within(s1, a1, s2, a2, params, k):
                return False
    return True


def infer_schedules_probing(nest: LoopNest, params: Dict[str, int]) -> ScheduledNest:
    """Trivial schedules for a dependence-free nest; else the first
    ``outer`` at which :func:`inner_loops_parallel` holds, or the fully
    sequential fallback."""
    if not find_dependences(nest, params):
        return trivial_schedules(nest)
    max_depth = max(s.depth for s in nest.statements)
    for outer in range(1, max_depth + 1):
        if inner_loops_parallel(nest, params, outer):
            return outer_sequential_schedules(nest, outer)
    return outer_sequential_schedules(nest, max_depth)
