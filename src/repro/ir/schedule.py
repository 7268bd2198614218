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

:func:`infer_schedules` derives outer-sequential schedules from the
nest's own dependence facts: one :func:`~repro.ir.dependence.test_dependence`
verdict per access pair, and carried-level tests only for the pairs it
keeps.  The level-probing scheduler it replaced is the test oracle
``tests/oracles/schedule.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Sequence, Tuple

from ..linalg import IntMat
from ..linalg.cache import _MISSING
from ..obs import span
from .dependence import (
    _params_key,
    _schedule_cache,
    dependence_cache_enabled,
    dependent_within,
    test_dependence,
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

    def __getstate__(self):
        # only the fields: memos other layers keep on the object (the
        # runtime's domain stages) stay in their process
        return {f.name: getattr(self, f.name) for f in fields(self)}

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
    (trivial schedule).  Otherwise the first ``outer`` loops become the
    time dimensions, with ``outer`` the smallest depth whose inner loops
    carry no dependence (fully sequential when none does).  This is a
    deliberately simple scheduler — the paper takes the schedule as an
    input of the mapping problem, not as its contribution.

    ``outer`` is the dependence level of Allen & Kennedy ("Automatic
    translation of FORTRAN programs to vector form", TOPLAS 1987),
    found in one walk over the access pairs (see :func:`_outer_depth`)
    and memoized per ``(nest, params)`` under
    ``ir.dependence.cache.schedule_depth.*``: campaign grids re-infer
    identical nests once per knob value.
    """
    if not dependence_cache_enabled():
        outer = _outer_depth(nest, params)
    else:
        key = (_nest_key(nest), _params_key(params))
        outer = _schedule_cache.get(key)
        if outer is _MISSING:
            outer = _outer_depth(nest, params)
            _schedule_cache.put(key, outer)
    if outer is None:
        return trivial_schedules(nest)
    return outer_sequential_schedules(nest, outer)


def _nest_key(nest: LoopNest):
    """Canonical hashable key of a nest's dependence-relevant content:
    per-statement depth, domain constraints and access list (order
    preserved — the self-pair identity checks are positional).
    Statement names don't enter any verdict."""
    return tuple(
        (s.depth, s.domain.constraints, tuple(s.accesses))
        for s in nest.statements
    )


def _outer_depth(nest: LoopNest, params: Dict[str, int]) -> Optional[int]:
    """The number of outer loops to sequentialize, or ``None`` when the
    nest has no dependence.

    Walks the pairs :func:`test_dependence` did not disprove, once
    each, with one monotone level: a pair still dependent with the
    first ``level`` indices of both instances equal
    (:func:`dependent_within`) raises it.  Equalities only shrink a
    pair's witness set, so no pair is probed below the current level,
    and the result is the largest level any pair needs — the first
    level at which every pair is independent.  A pair dependent with
    all its common indices equal is carried by no loop: the nest runs
    fully sequential.
    """
    max_depth = max((s.depth for s in nest.statements), default=0)
    level = None
    pairs = nest.all_accesses()
    with span("compile.dependence"):
        for i, (s1, a1) in enumerate(pairs):
            for s2, a2 in pairs[i:]:
                if test_dependence(s1, a1, s2, a2, params) is None:
                    continue
                level = level or 1
                common = min(s1.depth, s2.depth)
                while True:
                    k = min(level, common)
                    # k == 0: test_dependence just said dependent
                    if k and not dependent_within(s1, a1, s2, a2, params, k):
                        break
                    if k == common:
                        return max_depth  # carried by no loop
                    level += 1
    return level
