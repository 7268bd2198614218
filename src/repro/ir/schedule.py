"""Linear multidimensional schedules.

Section 4 of the paper assumes "the computation time steps for S(I) are
given by a linear multidimensional schedule": statement ``S`` executes
instance ``I`` at (vector) time ``theta_S I``.  The macro-communication
conditions are kernel conditions on ``theta_S``; the space-time
transformation of Section 4.5 stacks ``theta_S`` on top of ``M_S``.

A fully-parallel nest (all DOALL, the motivating example) has the
*trivial* schedule ``theta_S = 0`` of dimension 0, conventionally
represented by a ``1 x d`` zero matrix so that kernels are the whole
iteration space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..linalg import IntMat
from ..linalg.cache import _MISSING
from ..obs import span
from .dependence import (
    _params_key,
    _schedule_cache,
    dependence_cache_enabled,
    find_dependences,
)
from .loopnest import LoopNest


@dataclass(frozen=True)
class Schedule:
    """A linear multidimensional schedule ``I -> theta I`` for one
    statement (``theta`` has one row per time dimension)."""

    theta: IntMat

    @property
    def time_dims(self) -> int:
        return self.theta.nrows

    @property
    def depth(self) -> int:
        return self.theta.ncols

    def time_of(self, index: Sequence[int]) -> Tuple[int, ...]:
        col = IntMat.col(list(index))
        return (self.theta @ col).column_tuple(0)

    @staticmethod
    def trivial(depth: int) -> "Schedule":
        """The all-parallel schedule (every instance at time 0)."""
        return Schedule(theta=IntMat.zeros(1, depth))

    @staticmethod
    def sequential_outer(depth: int, outer: int = 1) -> "Schedule":
        """Schedule where the first ``outer`` loops are time dimensions
        (sequential) and the inner loops are all parallel.

        This matches Example 5 of the paper: ``t`` sequential, the inner
        ``i, j, k`` loops parallel, i.e. ``theta = e_1^T``.
        """
        rows = [[1 if j == i else 0 for j in range(depth)] for i in range(outer)]
        return Schedule(theta=IntMat(rows))

    def is_parallel_direction(self, v: IntMat) -> bool:
        """True iff moving along ``v`` keeps the time step unchanged."""
        return (self.theta @ v).is_zero()


@dataclass
class ScheduledNest:
    """A loop nest together with one schedule per statement."""

    nest: LoopNest
    schedules: Dict[str, Schedule]

    def schedule_of(self, stmt: str) -> Schedule:
        return self.schedules[stmt]

    def validate_shapes(self) -> None:
        for s in self.nest.statements:
            th = self.schedules.get(s.name)
            if th is None:
                raise ValueError(f"statement {s.name} has no schedule")
            if th.depth != s.depth:
                raise ValueError(
                    f"schedule of {s.name} has depth {th.depth}, statement "
                    f"has depth {s.depth}"
                )


def trivial_schedules(nest: LoopNest) -> ScheduledNest:
    """All-parallel schedules for every statement."""
    return ScheduledNest(
        nest=nest,
        schedules={s.name: Schedule.trivial(s.depth) for s in nest.statements},
    )


def outer_sequential_schedules(nest: LoopNest, outer: int = 1) -> ScheduledNest:
    """Schedules making the first ``outer`` loops of each statement the
    time dimensions."""
    return ScheduledNest(
        nest=nest,
        schedules={
            s.name: Schedule.sequential_outer(s.depth, outer) for s in nest.statements
        },
    )


def infer_schedules(nest: LoopNest, params: Dict[str, int]) -> ScheduledNest:
    """Pick the cheapest valid schedule the library knows how to verify.

    Strategy: if the nest is dependence-free, everything runs at time 0
    (trivial schedule).  Otherwise, sequentialize outer loops one at a
    time until the remaining inner loops carry no dependence; this is a
    deliberately simple scheduler — the paper takes the schedule as an
    input of the mapping problem, not as its contribution.
    """
    deps = find_dependences(nest, params)
    if not deps:
        return trivial_schedules(nest)
    max_depth = max(s.depth for s in nest.statements)
    for outer in range(1, max_depth + 1):
        if _inner_loops_parallel(nest, params, outer):
            return outer_sequential_schedules(nest, outer)
    # fully sequential fallback
    return outer_sequential_schedules(nest, max_depth)


def _nest_key(nest: LoopNest):
    """Canonical hashable key of a nest's dependence-relevant content:
    per-statement depth, domain constraints and access list (order
    preserved — the self-pair identity checks are positional).
    Statement names don't enter any verdict."""
    return tuple(
        (s.depth, s.domain.constraints, tuple(s.accesses))
        for s in nest.statements
    )


def _inner_loops_parallel(nest: LoopNest, params: Dict[str, int], outer: int) -> bool:
    """Memoized per ``(nest, params, level)`` through the dependence
    memo framework (``ir.dependence.cache.inner_loops_parallel.*``
    counters): :func:`infer_schedules` probes levels 1..depth of the
    same nest, and campaign grids re-infer identical nests once per
    knob value."""
    if not dependence_cache_enabled():
        return _inner_loops_parallel_uncached(nest, params, outer)
    key = (_nest_key(nest), _params_key(params), outer)
    value = _schedule_cache.get(key)
    if value is _MISSING:
        value = _inner_loops_parallel_uncached(nest, params, outer)
        _schedule_cache.put(key, value)
    return value


def _inner_loops_parallel_uncached(
    nest: LoopNest, params: Dict[str, int], outer: int
) -> bool:
    """Check that all dependences are carried by (or preserved within)
    the first ``outer`` loops: for each dependence witness lattice,
    require equal outer indices => equal full indices would be exact;
    we approximate conservatively by testing that no dependence exists
    between instances sharing the same outer-index values.

    Approximation: we strengthen the dependence system with
    ``I1[k] == I2[k]`` for the outer dims and re-run the lattice and
    bounds tests.
    """
    from ..linalg import solve_axb
    from .dependence import domain_feasible

    pairs = nest.all_accesses()
    with span("compile.dependence"):
        for i, (s1, a1) in enumerate(pairs):
            for s2, a2 in pairs[i:]:
                if a1.array != a2.array:
                    continue
                from .access import AccessKind

                if a1.kind is AccessKind.READ and a2.kind is AccessKind.READ:
                    continue
                k = min(outer, s1.depth, s2.depth)
                # stacked system: F1 I1 - F2 I2 = c2 - c1, I1[j] = I2[j]
                f1, f2 = a1.F, a2.F
                eq_rows = []
                for j in range(k):
                    row = [0] * (s1.depth + s2.depth)
                    row[j] = 1
                    row[s1.depth + j] = -1
                    eq_rows.append(row)
                a = f1.hstack(-1 * f2)
                full = IntMat(a.tolist() + eq_rows)
                rhs_entries = [
                    (a2.c - a1.c)[r, 0] for r in range(a1.F.nrows)
                ] + [0] * k
                sol = solve_axb(full, IntMat.col(rhs_entries))
                if sol is None:
                    continue
                if not domain_feasible(sol, s1, s2, params):
                    continue
                # same-instance solutions of a single access aren't deps
                if s1 is s2 and a1 is a2:
                    from .dependence import _has_distinct_solution

                    if not _has_distinct_solution(sol, s1.depth):
                        continue
                return False
    return True
