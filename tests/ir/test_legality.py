"""Tests for the schedule legality checker."""

import pytest

from repro.ir import (
    NestBuilder,
    Schedule,
    ScheduledNest,
    infer_schedules,
    motivating_example,
    outer_sequential_schedules,
    parse_nest,
    schedule_is_legal,
    schedule_violations,
    trivial_schedules,
)
from repro.linalg import IntMat

from oracles.legality import schedule_violations_python

PARAMS = {"N": 3, "M": 3}


def _dependent_nest():
    b = NestBuilder("dep")
    b.array("x", 1)
    b.statement(
        "S",
        [("i", 1, 4)],
        writes=[("x", [[1]], [0])],
        reads=[("x", [[1]], [-1])],
    )
    return b.build()


class TestLegality:
    def test_motivating_example_trivial_schedule_legal(self):
        nest = motivating_example()
        assert schedule_is_legal(trivial_schedules(nest), PARAMS)

    def test_parallel_schedule_illegal_for_recurrence(self):
        nest = _dependent_nest()
        sn = trivial_schedules(nest)
        assert not schedule_is_legal(sn, {})
        violations = schedule_violations(sn, {})
        assert violations
        assert "x" in violations[0]

    def test_sequential_schedule_legal_for_recurrence(self):
        nest = _dependent_nest()
        sn = outer_sequential_schedules(nest, outer=1)
        assert schedule_is_legal(sn, {})

    def test_inferred_schedules_always_legal(self):
        for nest in (motivating_example(), _dependent_nest()):
            sn = infer_schedules(nest, PARAMS)
            assert schedule_is_legal(sn, PARAMS)

    def test_violation_limit(self):
        nest = _dependent_nest()
        sn = trivial_schedules(nest)
        assert len(schedule_violations(sn, {}, limit=2)) == 2


def _scheduled(nest, thetas):
    return ScheduledNest(
        nest=nest,
        schedules={name: Schedule(theta=IntMat(rows)) for name, rows in thetas.items()},
    )


class TestOrderViolations:
    """The semantics fix: a sink scheduled strictly *before* its source
    is illegal even though no two instances share a time step."""

    def test_reversed_time_recurrence_is_illegal(self):
        # x[i] = x[i-1] with theta = -i: every read runs before the
        # write that feeds it, and no two instances share a step.  The
        # old same-step-only checker called this legal.
        nest = _dependent_nest()
        sn = _scheduled(nest, {"S": [[-1]]})
        assert not schedule_is_legal(sn, {})
        v = schedule_violations(sn, {}, limit=10)
        assert v and all("before its source" in msg for msg in v)

    def test_forward_time_recurrence_is_legal(self):
        nest = _dependent_nest()
        sn = _scheduled(nest, {"S": [[1]]})
        assert schedule_is_legal(sn, {})

    def test_cross_statement_order(self):
        # S2 reads what S1 writes but is scheduled earlier
        b = NestBuilder("two")
        b.array("y", 1)
        b.statement("S1", [("i", 1, 3)], writes=[("y", [[1]], [0])])
        b.statement("S2", [("i", 1, 3)], reads=[("y", [[1]], [0])],
                    writes=[("y", [[1]], [5])])
        nest = b.build()
        bad = _scheduled(nest, {"S1": [[1]], "S2": [[0]]})
        v = schedule_violations(bad, {}, limit=10)
        assert v
        assert "S2" in v[0] and "source S1" in v[0]
        good = _scheduled(nest, {"S1": [[0]], "S2": [[1]]})
        assert schedule_is_legal(good, {})

    def test_same_step_still_flagged(self):
        nest = _dependent_nest()
        v = schedule_violations(trivial_schedules(nest), {}, limit=10)
        assert v and all("same time step" in msg for msg in v)


class TestVectorizedBitIdentity:
    """The vectorized witness enumeration must reproduce the Python
    reference exactly — message strings and order included."""

    def _assert_identical(self, sn, params, limit=100):
        assert schedule_violations(sn, params, limit) == \
            schedule_violations_python(sn, params, limit)

    def test_seed_nests(self):
        nest = motivating_example()
        for sched in (trivial_schedules(nest),
                      outer_sequential_schedules(nest, 1)):
            self._assert_identical(sched, PARAMS)

    def test_recurrence_all_schedules(self):
        nest = _dependent_nest()
        for rows in ([[1]], [[-1]], [[0]]):
            self._assert_identical(_scheduled(nest, {"S": rows}), {})

    def test_triangular_nest(self):
        nest = parse_nest(
            """array A(2)
for k = 1..N:
  for i = k..N:
    for j = k..N:
      S: A[i, j] = f(A[i, j], A[i, k], A[k, j])
"""
        )
        for sched in (trivial_schedules(nest),
                      outer_sequential_schedules(nest, 1),
                      outer_sequential_schedules(nest, 3)):
            self._assert_identical(sched, {"N": 3})

    def test_mixed_depth_statements(self):
        nest = motivating_example()
        # S1 depth 2, S2/S3 depth 3: pads time vectors of mixed widths
        sched = ScheduledNest(
            nest=nest,
            schedules={
                s.name: Schedule.sequential_outer(s.depth, outer=min(2, s.depth))
                for s in nest.statements
            },
        )
        self._assert_identical(sched, {"N": 2, "M": 2})

    def test_generated_corpus(self):
        from repro.campaign import generate_workloads

        for wl in generate_workloads(seed=11, count=5):
            nest = wl.resolve()
            params = dict(wl.params)
            sn = infer_schedules(nest, params)
            self._assert_identical(sn, params)
            self._assert_identical(trivial_schedules(nest), params)


def _renamed_loops_nest():
    """``S0`` writes ``a[i]``, then ``S1`` reads ``a[p + 1]`` in a loop
    of its own: the pair is independent once the outer indices are
    equal (level 1), but the two statements share no loop, so the
    original order puts all of ``S0`` first."""
    b = NestBuilder("renamed")
    b.array("a", 1).array("b", 1)
    b.statement("S0", [("i", 1, "N")], writes=[("a", [[1]], [0])])
    b.statement(
        "S1", [("p", 1, "N")],
        writes=[("b", [[1]], [0])], reads=[("a", [[1]], [1])],
    )
    return b.build()


def _inner_carried_nest():
    """``a[i, j] = a[i, j - 1]``: carried by the inner loop (level 2)."""
    b = NestBuilder("inner")
    b.array("a", 2)
    b.statement(
        "S", [("i", 1, "N"), ("j", 1, "N")],
        writes=[("a", [[1, 0], [0, 1]], [0, 0])],
        reads=[("a", [[1, 0], [0, 1]], [0, -1])],
    )
    return b.build()


@pytest.mark.parametrize(
    "make, legal_from",
    [(_renamed_loops_nest, None), (_inner_carried_nest, 2)],
)
def test_ordered_pair_skip_needs_shared_and_sequential_loops(make, legal_from):
    """The ordered-pair skip holds only for levels within both the
    sequential loops and the loops the two statements share: a pair
    with level 1 between statements that share no loop is misordered
    under every outer-sequential schedule, and a pair carried by the
    inner loop conflicts until both loops are sequential."""
    nest = make()
    for outer in range(3):
        scheduled = outer_sequential_schedules(nest, outer)
        got = schedule_violations(scheduled, PARAMS, 5)
        assert got == schedule_violations_python(scheduled, PARAMS, 5)
        assert (not got) == (legal_from is not None and outer >= legal_from)
