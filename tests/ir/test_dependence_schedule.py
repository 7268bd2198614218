"""Tests for dependence analysis and scheduling, including the paper's
example nests."""

import pytest

from repro.ir import (
    NestBuilder,
    Schedule,
    find_dependences,
    infer_schedules,
    is_fully_parallel,
    motivating_example,
    outer_sequential_schedules,
    platonoff_example,
    trivial_schedules,
)
from repro.ir.dependence import domain_feasible, gcd_test, lattice_test
from repro.linalg import IntMat

PARAMS = {"N": 4, "M": 3, "n": 3}


class TestGcd:
    def test_disproves(self):
        # 2 i1 - 4 i2 = 3 has no integer solution
        f1 = IntMat([[2]])
        f2 = IntMat([[4]])
        assert not gcd_test(f1, IntMat.col([0]), f2, IntMat.col([3]))

    def test_allows(self):
        f1 = IntMat([[2]])
        f2 = IntMat([[4]])
        assert gcd_test(f1, IntMat.col([0]), f2, IntMat.col([2]))

    def test_zero_row(self):
        f1 = IntMat([[0]])
        f2 = IntMat([[0]])
        assert not gcd_test(f1, IntMat.col([0]), f2, IntMat.col([1]))
        assert gcd_test(f1, IntMat.col([1]), f2, IntMat.col([1]))


class TestLattice:
    def test_solution_exists(self):
        f = IntMat([[1, 0], [0, 1]])
        sol = lattice_test(f, IntMat.col([0, 0]), f, IntMat.col([1, 0]))
        assert sol is not None

    def test_no_solution(self):
        f1 = IntMat([[2, 0]])
        f2 = IntMat([[2, 0]])
        assert lattice_test(f1, IntMat.col([0]), f2, IntMat.col([1])) is None


def _box_statement():
    """A statement on the rectangular domain ``0 <= i <= 5``."""
    b = NestBuilder("box")
    b.array("x", 1)
    b.statement("S", [("i", 0, 5)], writes=[("x", [[1]], [0])])
    return b.build().statements[0]


class TestBounds:
    def test_witness_within_bounds(self):
        f = IntMat([[1]])
        sol = lattice_test(f, IntMat.col([0]), f, IntMat.col([1]))
        # i1 = i2 + 1, both in 0..5: feasible
        s = _box_statement()
        assert domain_feasible(sol, s, s, {})

    def test_witness_outside_bounds(self):
        f = IntMat([[1]])
        sol = lattice_test(f, IntMat.col([0]), f, IntMat.col([10]))
        # i1 = i2 + 10 cannot fit in 0..5 x 0..5
        s = _box_statement()
        assert not domain_feasible(sol, s, s, {})


class TestNestAnalysis:
    def test_motivating_example_parallel(self):
        nest = motivating_example()
        assert is_fully_parallel(nest, PARAMS)

    def test_example5_has_dependences(self):
        # a[t,i,j,k] written, never read; b read, never written:
        # actually dependence-free as a *memory* nest, but the paper
        # schedules t sequentially by assumption.
        nest = platonoff_example()
        deps = find_dependences(nest, PARAMS)
        assert deps == []

    def test_overlapping_writes_detected(self):
        b = NestBuilder("conflict")
        b.array("x", 1)
        b.statement("S1", [("i", 0, 4)], writes=[("x", [[1]], [0])])
        b.statement("S2", [("i", 0, 4)], writes=[("x", [[1]], [2])])
        nest = b.build()
        deps = find_dependences(nest, {})
        assert any(d.kind == "output" for d in deps)

    def test_disjoint_writes_not_detected(self):
        b = NestBuilder("disjoint")
        b.array("x", 1)
        b.statement("S1", [("i", 0, 4)], writes=[("x", [[1]], [0])])
        b.statement("S2", [("i", 0, 4)], writes=[("x", [[1]], [100])])
        nest = b.build()
        assert is_fully_parallel(nest, {})

    def test_flow_dependence(self):
        b = NestBuilder("flow")
        b.array("x", 1)
        b.statement(
            "S",
            [("i", 1, 4)],
            writes=[("x", [[1]], [0])],
            reads=[("x", [[1]], [-1])],
        )
        nest = b.build()
        deps = find_dependences(nest, {})
        kinds = {d.kind for d in deps}
        assert "flow" in kinds or "anti" in kinds

    def test_uniform_self_dependence_excluded_when_identity(self):
        b = NestBuilder("self")
        b.array("x", 1)
        b.statement(
            "S",
            [("i", 0, 4)],
            writes=[("x", [[1]], [0])],
        )
        nest = b.build()
        # single write access, distinct iterations write distinct cells
        assert is_fully_parallel(nest, {})


class TestSchedule:
    def test_trivial(self):
        s = Schedule.trivial(3)
        assert s.time_of((1, 2, 3)) == (0,)

    def test_sequential_outer(self):
        s = Schedule.sequential_outer(4, outer=1)
        assert s.time_of((7, 1, 2, 3)) == (7,)

    def test_parallel_direction(self):
        s = Schedule.sequential_outer(4, outer=1)
        assert s.is_parallel_direction(IntMat.col([0, 1, 0, 0]))
        assert not s.is_parallel_direction(IntMat.col([1, 0, 0, 0]))

    def test_trivial_schedules_nest(self):
        nest = motivating_example()
        sn = trivial_schedules(nest)
        sn.validate_shapes()
        assert sn.schedule_of("S1").depth == 2
        assert sn.schedule_of("S2").depth == 3

    def test_outer_sequential_nest(self):
        nest = platonoff_example()
        sn = outer_sequential_schedules(nest, outer=1)
        sn.validate_shapes()
        th = sn.schedule_of("S").theta
        assert th == IntMat([[1, 0, 0, 0]])

    def test_infer_parallel(self):
        nest = motivating_example()
        sn = infer_schedules(nest, PARAMS)
        assert sn.schedule_of("S1").theta.is_zero()

    def test_infer_sequentializes(self):
        b = NestBuilder("seq")
        b.array("x", 1)
        # x[i] = x[i-1]: outer loop must be sequential
        b.statement(
            "S",
            [("i", 1, 5)],
            writes=[("x", [[1]], [0])],
            reads=[("x", [[1]], [-1])],
        )
        nest = b.build()
        sn = infer_schedules(nest, {})
        assert not sn.schedule_of("S").theta.is_zero()

    def test_infer_inner_parallel(self):
        b = NestBuilder("wave")
        b.array("x", 2)
        # x[i, j] = x[i-1, j]: i sequential, j parallel
        b.statement(
            "S",
            [("i", 1, 4), ("j", 1, 4)],
            writes=[("x", [[1, 0], [0, 1]], [0, 0])],
            reads=[("x", [[1, 0], [0, 1]], [-1, 0])],
        )
        nest = b.build()
        sn = infer_schedules(nest, {})
        assert sn.schedule_of("S").theta == IntMat([[1, 0]])

    def test_missing_schedule_rejected(self):
        from repro.ir import ScheduledNest

        nest = motivating_example()
        sn = ScheduledNest(nest=nest, schedules={})
        with pytest.raises(ValueError):
            sn.validate_shapes()
