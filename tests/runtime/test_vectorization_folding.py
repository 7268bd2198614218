"""Runtime tests: message vectorization effect, grouped folding,
collective costing, and robustness at other grid dimensions."""

import pytest

from repro.alignment import two_step_heuristic
from repro.ir import (
    NestBuilder,
    Schedule,
    ScheduledNest,
    outer_sequential_schedules,
    parse_nest,
)
from repro.linalg import IntMat
from repro.machine import CM5Model, Mesh, MeshModel
from repro.runtime import Folding, MappedProgram, execute


def _timed_nest():
    """A nest whose read is vectorizable: the source does not move with
    the sequential time loop."""
    b = NestBuilder("vect")
    b.array("x", 2).array("y", 2)
    b.statement(
        "S",
        [("t", 0, 3), ("i", 0, 5), ("j", 0, 5)],
        writes=[("x", [[0, 1, 0], [0, 0, 1]], None, "W")],
        reads=[("y", [[0, 0, 1], [0, 1, 0]], None, "R")],
    )
    return b.build()


class TestVectorization:
    def test_vectorizable_flag_set(self):
        nest = _timed_nest()
        schedules = outer_sequential_schedules(nest, outer=1)
        result = two_step_heuristic(nest, m=2, schedules=schedules)
        residual_labels = {o.label: o for o in result.optimized}
        if "R" in residual_labels:
            assert residual_labels["R"].vectorizable

    def test_vectorization_reduces_message_count(self):
        """With 4 time steps, the vectorized read sends 1 batch where a
        non-vectorized schedule would send 4."""
        nest = _timed_nest()
        schedules = outer_sequential_schedules(nest, outer=1)
        result = two_step_heuristic(nest, m=2, schedules=schedules)
        machine = MeshModel(2, 2)
        program = MappedProgram(
            mapping=result,
            folding=Folding(mesh=machine.mesh, extent=6),
            params={},
        )
        rep = execute(program, machine)
        for o in result.optimized:
            if o.vectorizable and o.label in rep.per_access:
                s = rep.per_access[o.label]
                if s.messages_before_vectorization:
                    assert (
                        s.messages_after_vectorization
                        < s.messages_before_vectorization
                    )


class TestFoldingSchemes:
    def test_grouped_folding_accepted(self):
        nest = _timed_nest()
        schedules = outer_sequential_schedules(nest, outer=1)
        result = two_step_heuristic(nest, m=2, schedules=schedules)
        mesh = Mesh(2, 2)
        folding = Folding(
            mesh=mesh,
            extent=6,
            schemes=("grouped", "block"),
            scheme_kw=({"k": 2}, {}),
        )
        program = MappedProgram(mapping=result, folding=folding, params={})
        rep = execute(program, MeshModel(2, 2))
        assert rep.total_time >= 0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            Folding(mesh=Mesh(2, 2), extent=4, schemes=("bogus", "cyclic"))


class TestCollectives:
    def test_reduction_priced_by_hardware(self):
        """A matmul-style reduction access costed with CM-5 collectives
        uses reduction_time, which is far below the mesh price."""
        b = NestBuilder("red")
        b.array("s", 2).array("v", 2)
        b.statement(
            "S",
            [("i", 0, 5), ("j", 0, 5), ("k", 0, 5)],
            writes=[("s", [[1, 0, 0], [0, 1, 0]], None, "Ws")],
            reads=[("v", [[1, 0, 0], [0, 0, 1]], None, "Rv")],
        )
        nest = b.build()
        schedules = ScheduledNest(
            nest=nest, schedules={"S": Schedule(theta=IntMat([[0, 0, 1]]))}
        )
        result = two_step_heuristic(nest, m=2, schedules=schedules)
        machine = MeshModel(2, 2)
        folding = Folding(mesh=machine.mesh, extent=6)
        program = MappedProgram(mapping=result, folding=folding, params={})
        plain = execute(program, machine)
        with_hw = execute(program, machine, collectives=CM5Model())
        macro_labels = [
            o.label for o in result.optimized if o.classification == "macro"
        ]
        if macro_labels:
            assert with_hw.total_time < plain.total_time


class TestOtherGridDims:
    def test_m1_mapping_runs(self):
        nest = _timed_nest()
        result = two_step_heuristic(nest, m=1)
        assert result.alignment.m == 1
        for mat in result.alignment.allocations.values():
            assert mat.nrows == 1

    def test_m3_mapping_runs(self):
        src = """array a(3), b(3)
for i = 0..7:
  for j = 0..7:
    for k = 0..7:
      S: a[i, j, k] = f(b[j, i, k])
"""
        nest = parse_nest(src)
        result = two_step_heuristic(nest, m=3)
        assert result.alignment.m == 3
        # permutation access: both can be local
        assert len(result.alignment.local_labels) == 2
