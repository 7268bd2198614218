"""Tests for mesh topology, routing, contention model and event
simulator (conservation and ordering properties)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import (
    CM5Model,
    CostParams,
    EventSimulator,
    Mesh,
    Message,
    MeshModel,
    broadcast_tree_phases,
    message_counts,
    reduction_tree_phases,
    translation_pattern,
)
from repro.distribution import BlockDistribution, CyclicDistribution, Distribution2D


class TestRouting:
    def test_local_no_links(self):
        m = Mesh(2, 2)
        assert m.route((0, 0), (0, 0)) == []

    def test_route_includes_inj_eje(self):
        m = Mesh(2, 2)
        route = m.route((0, 0), (1, 1))
        assert route[0] == ("inj", (0, 0))
        assert route[-1] == ("eje", (1, 1))
        # X (column) first, then Y
        assert ("net", (0, 0), (0, 1)) in route
        assert ("net", (0, 1), (1, 1)) in route

    def test_hops(self):
        m = Mesh(4, 4)
        assert m.hops((0, 0), (3, 3)) == 6

    def test_route_length_matches_hops(self):
        m = Mesh(3, 5)
        for src in m.nodes():
            for dst in m.nodes():
                r = m.route(src, dst)
                if src == dst:
                    assert r == []
                else:
                    assert len(r) == m.hops(src, dst) + 2

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            Mesh(2, 2).route((0, 0), (5, 0))


def time_phase(mesh, messages, params):
    """One phase on ``mesh``, priced by the mesh model under
    ``params``."""
    return MeshModel(*mesh.dims, params=params).time_phase(messages)


class TestContention:
    def test_single_message(self):
        m = Mesh(2, 2)
        p = CostParams(alpha=10, beta=1, gamma=0.5)
        rep = time_phase(m, [Message((0, 0), (0, 1), size=4)], p)
        assert rep.total_messages == 1
        assert rep.max_link_load == 4
        assert rep.time == 10 + 4 + 0.5

    def test_local_messages_free(self):
        m = Mesh(2, 2)
        rep = time_phase(m, [Message((0, 0), (0, 0), size=100)], CostParams())
        assert rep.time == 0
        assert rep.local_messages == 1

    def test_conflicting_messages_serialize(self):
        m = Mesh(1, 4)
        p = CostParams(alpha=0, beta=1, gamma=0)
        # both messages cross link (0,1)->(0,2)
        msgs = [
            Message((0, 0), (0, 3), size=5),
            Message((0, 1), (0, 2), size=5),
        ]
        rep = time_phase(m, msgs, p)
        assert rep.max_link_load == 10

    def test_fanout_serializes_at_sender(self):
        m = Mesh(2, 2)
        p = CostParams(alpha=7, beta=0, gamma=0)
        msgs = [Message((0, 0), d, size=1) for d in [(0, 1), (1, 0), (1, 1)]]
        rep = time_phase(m, msgs, p)
        assert rep.max_msgs_per_sender == 3
        assert rep.time == 21

    def test_decomposed_beats_general_shape(self):
        """The Table 2 phenomenon: T = L U implemented as two
        coalesced axis-parallel phases beats the direct general pattern
        (which the compiler cannot vectorize: one message per element).
        """
        from repro.linalg import IntMat
        from repro.decomp import L, U

        n = 12
        pm = MeshModel(4, 4)
        dist = Distribution2D(
            rows=CyclicDistribution(n, 4), cols=CyclicDistribution(n, 4)
        )
        t = IntMat([[1, 3], [2, 7]])
        direct = pm.time_general(dist, t, size=4)
        split = pm.time_decomposed(dist, [L(2), U(3)], size=4)
        assert split < direct


class TestEventSim:
    def test_empty(self):
        sim = EventSimulator(Mesh(2, 2), CostParams())
        assert sim.run([]) == 0.0

    def test_single_message_time(self):
        sim = EventSimulator(Mesh(1, 2), CostParams(alpha=0, beta=1, gamma=2))
        # wormhole: beta*size once + gamma per network hop (1 hop here)
        t = sim.run([Message((0, 0), (0, 1), size=2)])
        assert t == 4.0

    def test_conflicting_paths_serialize(self):
        sim = EventSimulator(Mesh(1, 4), CostParams(alpha=0, beta=1, gamma=0))
        msgs = [
            Message((0, 0), (0, 3), size=5),
            Message((0, 1), (0, 2), size=5),
        ]
        # both need link (0,1)->(0,2): they serialize
        assert sim.run(msgs) == 10.0

    def test_disjoint_paths_overlap(self):
        sim = EventSimulator(Mesh(1, 4), CostParams(alpha=0, beta=1, gamma=0))
        msgs = [
            Message((0, 0), (0, 1), size=5),
            Message((0, 2), (0, 3), size=5),
        ]
        assert sim.run(msgs) == 5.0

    def test_never_faster_than_bottleneck(self):
        mesh = Mesh(2, 4)
        params = CostParams(alpha=2, beta=1, gamma=0.1)
        msgs = [
            Message((0, 0), (1, 3), size=3),
            Message((0, 1), (1, 2), size=2),
            Message((1, 0), (0, 0), size=4),
        ]
        analytic = time_phase(mesh, msgs, params)
        simulated = EventSimulator(mesh, params).run(msgs)
        assert simulated >= analytic.max_link_load * params.beta

    def test_agrees_on_ordering_with_analytic(self):
        from repro.linalg import IntMat
        from repro.machine import affine_pattern, decomposed_phases
        from repro.decomp import L, U

        n = 8
        pm = MeshModel(4, 2)
        dist = Distribution2D(
            rows=CyclicDistribution(n, 4), cols=CyclicDistribution(n, 2)
        )
        t = IntMat([[1, 3], [2, 7]])
        direct = pm.time_event_driven(
            [affine_pattern(dist, t, size=2, merge=False)]
        )
        split = pm.time_event_driven(decomposed_phases(dist, [L(2), U(3)], size=2))
        assert split < direct


class TestCollectivePatterns:
    def test_broadcast_covers_everyone(self):
        mesh = Mesh(2, 4)
        phases = broadcast_tree_phases(mesh, root=(0, 0), size=1)
        receivers = {m.dst for ph in phases for m in ph}
        assert receivers == set(mesh.nodes()) - {(0, 0)}
        # binomial: ceil(log2(8)) = 3 phases
        assert len(phases) == 3

    def test_reduction_mirrors_broadcast(self):
        mesh = Mesh(2, 2)
        red = reduction_tree_phases(mesh, root=(0, 0))
        senders = {m.src for ph in red for m in ph}
        assert senders == set(mesh.nodes()) - {(0, 0)}

    def test_message_counts(self):
        msgs = [
            Message((0, 0), (0, 0), size=5),
            Message((0, 0), (0, 1), size=2),
        ]
        c = message_counts(msgs)
        assert c == {"total": 2, "remote": 1, "local": 1, "volume": 2}


class TestCM5:
    def test_table1_ordering(self):
        cm5 = CM5Model(nodes=32)
        red, bc, tr, gen = (
            cm5.reduction_time(),
            cm5.broadcast_time(),
            cm5.translation_time(),
            cm5.general_time(),
        )
        assert red <= bc < tr < gen
        assert gen / bc > 8  # order-of-magnitude gap, as in Table 1

    def test_ratios_normalised(self):
        ratios = CM5Model().table1_ratios()
        assert ratios[0] == 1.0
        assert ratios == sorted(ratios)

    def test_tree_depth(self):
        assert CM5Model(nodes=32).tree_depth == 5
        assert CM5Model(nodes=1).tree_depth == 1
