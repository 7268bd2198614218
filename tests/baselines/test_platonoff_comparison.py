"""The Section 7.2 experiment: on Example 5, the two-step heuristic
finds a communication-free mapping while Platonoff's broadcast-first
strategy pays one partial broadcast per (i, j) pair per time step."""

import pytest

from repro.alignment import two_step_heuristic
from repro.baselines import feautrier_align, platonoff_mapping
from repro.ir import (
    motivating_example,
    outer_sequential_schedules,
    platonoff_example,
    trivial_schedules,
)
from repro.linalg import IntMat
from repro.macrocomm import Extent, MacroKind


@pytest.fixture(scope="module")
def nest():
    return platonoff_example()


@pytest.fixture(scope="module")
def schedules(nest):
    # outer t loop sequential, i/j/k parallel (the paper's premise)
    return outer_sequential_schedules(nest, outer=1)


class TestOurHeuristic:
    def test_communication_free(self, nest, schedules):
        result = two_step_heuristic(nest, m=2, schedules=schedules)
        assert result.optimized == []
        assert result.local_count == 2  # both accesses local

    def test_parallelism_preserved(self, nest, schedules):
        """The chosen mapping must keep a 2-D set of processors active
        per time step (not project the grid onto the time axis)."""
        from repro.linalg import integer_kernel_basis, rank

        result = two_step_heuristic(nest, m=2, schedules=schedules)
        ms = result.alignment.allocation_of_stmt("S")
        theta = schedules.schedule_of("S").theta
        kern = integer_kernel_basis(theta)
        cols = [v.column_tuple(0) for v in kern]
        k_mat = IntMat(list(zip(*cols)))
        assert rank(ms @ k_mat) == 2


class TestPlatonoffBaseline:
    def test_broadcast_preserved_but_residual(self, nest, schedules):
        result = platonoff_mapping(nest, m=2, schedules=schedules)
        labels = {o.label: o for o in result.optimized}
        assert "Fb" in labels, "the read of b must stay non-local"
        fb = labels["Fb"]
        assert fb.classification == "macro"
        assert fb.macro.kind is MacroKind.BROADCAST
        assert fb.macro.extent is Extent.PARTIAL
        assert fb.macro.axis_parallel

    def test_write_is_local(self, nest, schedules):
        result = platonoff_mapping(nest, m=2, schedules=schedules)
        assert "Fa" in result.alignment.local_labels


class TestEndToEndComparison:
    def test_message_counts(self, nest, schedules):
        """Executing both mappings: ours moves nothing, the baseline
        issues broadcasts every time step."""
        from repro.machine import Mesh, MeshModel
        from repro.runtime import Folding, MappedProgram, execute

        params = {"n": 3}
        machine = MeshModel(2, 2)
        folding = Folding(mesh=machine.mesh, extent=4)

        ours = two_step_heuristic(nest, m=2, schedules=schedules)
        prog = MappedProgram(mapping=ours, folding=folding, params=params)
        rep = execute(prog, machine)
        assert rep.total_messages == 0
        assert rep.total_time == 0.0

        base = platonoff_mapping(nest, m=2, schedules=schedules)
        prog_b = MappedProgram(mapping=base, folding=folding, params=params)
        rep_b = execute(prog_b, machine)
        assert rep_b.total_messages > 0
        assert rep_b.total_time > 0.0

    def test_virtual_nonlocal_counts(self, nest, schedules):
        from repro.machine import Mesh, MeshModel
        from repro.runtime import Folding, MappedProgram, count_nonlocal_virtual

        params = {"n": 3}
        folding = Folding(mesh=Mesh(2, 2), extent=4)
        ours = two_step_heuristic(nest, m=2, schedules=schedules)
        base = platonoff_mapping(nest, m=2, schedules=schedules)
        ours_counts = count_nonlocal_virtual(
            MappedProgram(mapping=ours, folding=folding, params=params)
        )
        base_counts = count_nonlocal_virtual(
            MappedProgram(mapping=base, folding=folding, params=params)
        )
        assert sum(ours_counts.values()) == 0
        # baseline: every (t,i,j,k) instance with k != projection reads
        # remotely — Θ(n^4) element communications before vectorization
        assert sum(base_counts.values()) > 0


class TestFeautrierBaseline:
    def test_greedy_still_reasonable_on_example1(self):
        nest = motivating_example()
        al = feautrier_align(nest, 2)
        # greedy zeroes out *some* communications but needs not reach
        # the branching's five
        assert 1 <= len(al.local_labels) <= 5

    def test_edmonds_at_least_as_good(self):
        nest = motivating_example()
        greedy = feautrier_align(nest, 2)
        edmonds = two_step_heuristic(nest, m=2)
        assert len(edmonds.alignment.local_labels) >= len(greedy.local_labels)

    def test_greedy_allocations_full_rank(self):
        from repro.linalg import rank

        nest = motivating_example()
        al = feautrier_align(nest, 2)
        for node, mat in al.allocations.items():
            assert rank(mat) == min(mat.shape)
