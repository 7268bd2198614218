"""Tests for the runtime executor: folding, message extraction,
vectorization and costing on the motivating example."""

import pytest

from repro.alignment import two_step_heuristic, var_node
from repro.ir import motivating_example
from repro.linalg import IntMat
from repro.machine import CM5Model, Mesh, MeshModel
from repro.runtime import (
    CommReport,
    Folding,
    MappedProgram,
    count_nonlocal_virtual,
    execute,
)

from oracles.events import comm_events

PARAMS = {"N": 3, "M": 3}


@pytest.fixture(scope="module")
def program():
    nest = motivating_example()
    mapping = two_step_heuristic(
        nest, m=2, root_allocations={var_node("a"): IntMat.identity(2)}
    )
    machine = MeshModel(2, 2)
    folding = Folding(mesh=machine.mesh, extent=8)
    return MappedProgram(mapping=mapping, folding=folding, params=PARAMS)


@pytest.fixture(scope="module")
def machine():
    return MeshModel(2, 2)


class TestFolding:
    def test_fold_basic(self):
        f = Folding(mesh=Mesh(2, 2), extent=4)
        assert f.fold((0, 0)) == (0, 0)
        assert f.fold((1, 1)) == (1, 1)  # cyclic default
        assert f.fold((2, 2)) == (0, 0)

    def test_fold_negative(self):
        f = Folding(mesh=Mesh(2, 2), extent=4)
        # negative virtual coordinates wrap into the window
        assert f.fold((-1, 0))[0] in (0, 1)

    def test_fold_extra_dims_rejected(self):
        """Extra virtual dimensions are no longer silently summed away:
        a rank mismatch is a friendly error."""
        f = Folding(mesh=Mesh(2, 2), extent=4)
        with pytest.raises(ValueError, match="virtual grid dimension m"):
            f.fold((1, 1, 1))

    def test_fold_missing_dims_rejected(self):
        f = Folding(mesh=Mesh(2, 2), extent=4)
        with pytest.raises(ValueError, match="3-D mesh|2-D mesh"):
            f.fold((3,))

    def test_fold_3d_mesh(self):
        f = Folding(mesh=Mesh(2, 2, 2), extent=4)
        assert f.rank == 3
        assert f.fold((1, 2, 3)) == (1, 0, 1)  # cyclic per dimension
        with pytest.raises(ValueError, match="m must"):
            f.fold((1, 2))

    def test_fold_3d_schemes_per_dimension(self):
        f = Folding(
            mesh=Mesh(2, 2, 2), extent=4,
            schemes=("block", "cyclic", "block"),
        )
        assert f.fold((3, 3, 0)) == (1, 1, 0)

    def test_scheme_count_must_match_rank(self):
        with pytest.raises(ValueError, match="one distribution scheme"):
            Folding(mesh=Mesh(2, 2), extent=4, schemes=("cyclic",))

    def test_block_scheme(self):
        f = Folding(mesh=Mesh(2, 2), extent=4, schemes=("block", "cyclic"))
        assert f.fold((0, 0))[0] == 0
        assert f.fold((3, 0))[0] == 1


class TestCommEvents:
    def test_local_accesses_have_equal_virtuals(self, program):
        events = comm_events(program)
        local_labels = program.mapping.alignment.local_labels
        for ev in events:
            if ev.access_label in local_labels:
                assert ev.sender_virtual == ev.receiver_virtual

    def test_residual_accesses_move_data(self, program):
        counts = count_nonlocal_virtual(program)
        assert set(counts) == {"F3", "F6", "F8"}
        assert all(v > 0 for v in counts.values())

    def test_event_count_matches_domain(self, program):
        nest = program.mapping.alignment.nest
        events = comm_events(program)
        expected = sum(
            s.domain_size(PARAMS) * len(s.accesses) for s in nest.statements
        )
        assert len(events) == expected

    def test_read_direction(self, program):
        # for reads, the receiver is the statement processor
        ev = next(
            e for e in comm_events(program) if e.access_label == "F6"
        )
        # find the matching index: receiver must equal M_S2 @ idx
        assert ev.receiver_virtual is not None


class TestExecute:
    def test_report_structure(self, program, machine):
        rep = execute(program, machine)
        assert isinstance(rep, CommReport)
        assert rep.stats("F2").classification == "local"
        assert rep.stats("F2").time == 0.0
        assert rep.stats("F6").classification == "macro"
        assert rep.stats("F3").classification == "decomposed"
        assert rep.total_time > 0

    def test_local_cost_zero(self, program, machine):
        rep = execute(program, machine)
        for lab in program.mapping.alignment.local_labels:
            assert rep.stats(lab).time == 0.0
            assert rep.stats(lab).messages_after_vectorization == 0

    def test_vectorization_reduces_messages(self, program, machine):
        rep = execute(program, machine)
        s = rep.stats("F3")
        assert s.messages_after_vectorization <= s.messages_before_vectorization

    def test_collectives_price_macros(self, program, machine):
        cm5 = CM5Model()
        rep = execute(program, machine, collectives=cm5)
        assert rep.stats("F6").macro_ops > 0

    def test_describe(self, program, machine):
        text = execute(program, machine).describe()
        assert "F6" in text and "total:" in text
