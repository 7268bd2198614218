"""The MachineModel protocol and the name→factory registry."""

import pytest

from repro.machine import (
    CM5Model,
    MachineModel,
    MachineSpec,
    MeshModel,
    machine_for_mesh,
    machine_names,
    machine_spec,
    make_machine,
    register_machine,
)


class TestRegistry:
    def test_builtin_names(self):
        names = machine_names()
        assert ("paragon", "cm5", "t3d") == names[:3]

    def test_make_machine_paragon(self):
        m = make_machine("paragon", (4, 4))
        assert isinstance(m, MeshModel)
        assert m.mesh.dims == (4, 4)

    def test_make_machine_t3d(self):
        m = make_machine("t3d", (2, 3, 4))
        assert isinstance(m, MeshModel)
        assert m.mesh.dims == (2, 3, 4)

    def test_unknown_name_friendly(self):
        with pytest.raises(ValueError, match="unknown machine 't3e'"):
            make_machine("t3e", (4, 4))

    def test_rank_mismatch_friendly(self):
        with pytest.raises(ValueError, match="needs a 3-D mesh"):
            make_machine("t3d", (4, 4))
        with pytest.raises(ValueError, match="needs a 2-D mesh"):
            make_machine("paragon", (2, 2, 2))

    def test_nonpositive_mesh_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            make_machine("paragon", (0, 4))

    def test_cm5_is_paragon_plus_collectives(self):
        spec = machine_spec("cm5")
        machine = spec.make((4, 4))
        collectives = spec.make_collectives((4, 4))
        assert isinstance(machine, MeshModel)
        assert isinstance(collectives, CM5Model)
        assert collectives.nodes == 16

    def test_point_to_point_machines_have_no_collectives(self):
        assert machine_spec("paragon").make_collectives((4, 4)) is None
        assert machine_spec("t3d").make_collectives((2, 2, 2)) is None

    def test_machine_for_mesh_by_rank(self):
        assert machine_for_mesh((4, 4)).name == "paragon"
        assert machine_for_mesh((2, 2, 2)).name == "t3d"
        with pytest.raises(ValueError, match="no machine model"):
            machine_for_mesh((2, 2, 2, 2))

    def test_custom_registration(self):
        spec = MachineSpec(
            name="_test_mesh3d",
            mesh_rank=3,
            factory=MeshModel,
            description="test-only alias",
        )
        try:
            register_machine(spec)
            assert "_test_mesh3d" in machine_names()
            m = make_machine("_test_mesh3d", (2, 2, 2))
            assert isinstance(m, MeshModel)
        finally:
            from repro.machine.model import _REGISTRY

            _REGISTRY.pop("_test_mesh3d", None)


class TestProtocolConformance:
    """The mesh model satisfies the structural MachineModel interface
    at mesh rank 2 and 3 and produces interchangeable PhaseReports."""

    @pytest.mark.parametrize(
        "machine", [MeshModel(2, 2), MeshModel(2, 2, 2)]
    )
    def test_runtime_checkable(self, machine):
        assert isinstance(machine, MachineModel)

    def test_phase_report_surface_matches(self):
        from repro.machine import Message, PhaseReport

        rep2 = MeshModel(2, 2).time_phase(
            [Message((0, 0), (1, 1), size=3)]
        )
        rep3 = MeshModel(2, 2, 2).time_phase(
            [Message((0, 0, 0), (1, 1, 1), size=3)]
        )
        assert isinstance(rep2, PhaseReport)
        assert isinstance(rep3, PhaseReport)
        # one more dimension, one more hop; same cost structure
        assert rep3.max_hops == rep2.max_hops + 1
        assert rep3.total_volume == rep2.total_volume

    def test_time_phases_total(self):
        from repro.machine import Message

        machine = MeshModel(2, 2, 2)
        phases = [
            [Message((0, 0, 0), (0, 0, 1), size=2)],
            [Message((0, 0, 1), (0, 1, 1), size=2)],
        ]
        total = machine.time_phases(phases)
        assert total == sum(machine.time_phase(p).time for p in phases)
