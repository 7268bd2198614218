"""Tests for the 3-D mesh substrate and the T3D model (the paper's
m = 3 case)."""

import pytest

from repro.decomp import elementary, unirow_decomposition, verify_factors
from repro.distribution import BlockDistribution, CyclicDistribution
from repro.linalg import IntMat
from repro.machine import (
    CostParams,
    Mesh,
    Message,
    MeshModel,
    affine_pattern,
)


class TestMesh3D:
    def test_size_and_nodes(self):
        m = Mesh(2, 3, 4)
        assert m.size == 24
        assert len(list(m.nodes())) == 24

    def test_route_local(self):
        m = Mesh(2, 2, 2)
        assert m.route((0, 0, 0), (0, 0, 0)) == []

    def test_route_length(self):
        m = Mesh(3, 3, 3)
        r = m.route((0, 0, 0), (2, 2, 2))
        assert len(r) == m.hops((0, 0, 0), (2, 2, 2)) + 2
        assert r[0][0] == "inj" and r[-1][0] == "eje"

    def test_route_dimension_order(self):
        m = Mesh(2, 2, 2)
        r = m.route((0, 0, 0), (1, 1, 1))
        # last axis moves first
        assert r[1] == ("net", (0, 0, 0), (0, 0, 1))

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Mesh(0, 1, 1)
        with pytest.raises(ValueError):
            Mesh(2, 2, 2).route((0, 0, 0), (5, 0, 0))


class TestTiming3D:
    def test_single_message(self):
        p = CostParams(alpha=10, beta=1, gamma=0.5)
        rep = MeshModel(2, 2, 2, params=p).time_phase(
            [Message((0, 0, 0), (0, 0, 1), size=4)]
        )
        assert rep.time == 10 + 4 + 0.5
        # the full utilization breakdown comes back, like in 2-D
        assert rep.max_link_load == 4
        assert rep.max_hops == 1
        assert rep.total_messages == 1
        assert rep.total_volume == 4

    def test_local_free(self):
        rep = MeshModel(2, 2, 2).time_phase([Message((0, 0, 0), (0, 0, 0), 9)])
        assert rep.time == 0
        assert rep.local_messages == 1

    def test_t3d_time_phase_returns_report(self):
        """On a 3-D mesh, MeshModel.time_phase returns the same
        PhaseReport surface as on a 2-D mesh (formerly a bare float)."""
        from repro.machine import PhaseReport

        machine = MeshModel(2, 2, 2)
        rep = machine.time_phase([Message((0, 0, 0), (1, 1, 1), size=2)])
        assert isinstance(rep, PhaseReport)
        assert rep.time > 0 and rep.max_hops == 3

    def test_t3d_event_driven_cross_check(self):
        """The event simulator runs on the 3-D mesh — the same
        cross-check Paragon has: for a conflict-free phase the makespan
        is the transfer+pipeline term, and the analytic model is an
        upper bound (it additionally charges the sender start-up)."""
        machine = MeshModel(2, 2, 2)
        phase = [Message((0, 0, 0), (1, 1, 1), size=2)]
        event = machine.time_event_driven([phase])
        p = machine.params
        assert event == p.beta * 2 + p.gamma * 3
        assert event <= machine.time_phases([phase])


class TestT3DDecomposition:
    def _dists(self, n=8, p=2):
        return (
            CyclicDistribution(n, p),
            CyclicDistribution(n, p),
            CyclicDistribution(n, p),
        )

    def test_3d_elementary_moves_one_axis(self):
        # elementary matrix with non-trivial row 0: moves axis 0 only
        e = elementary(3, 0, [1, 2, 1], diag=1)
        dists = self._dists()
        msgs = affine_pattern(dists, e, merge=False)
        for m in msgs:
            if m.src != m.dst:
                assert m.src[1:] == m.dst[1:]

    def test_3d_decomposition_beats_general(self):
        """The m = 3 analogue of Table 2: a 3-D unirow decomposition of
        a general det-1 matrix beats the direct element-wise pattern."""
        t = IntMat([[1, 1, 0], [1, 2, 1], [0, 1, 2]])
        assert t.det() == 1
        factors = unirow_decomposition(t)
        assert verify_factors(t, factors)
        machine = MeshModel(2, 2, 2)
        dists = self._dists()
        direct = machine.time_general(dists, t, size=4)
        split = machine.time_decomposed(dists, factors, size=4)
        assert split < direct

    def test_pattern_wrap_and_merge(self):
        dists = self._dists(n=4)
        t = IntMat.identity(3)
        merged = affine_pattern(dists, t, merge=True)
        # identity pattern: every message is local
        assert all(m.src == m.dst for m in merged)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            affine_pattern(self._dists(), IntMat.identity(2))
