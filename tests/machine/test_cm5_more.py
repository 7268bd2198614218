"""Additional CM-5 model and contention-report tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import (
    CM5Model,
    CostParams,
    MeshModel,
    Message,
)


class TestCM5Parameters:
    def test_scaling_with_nodes(self):
        small = CM5Model(nodes=8)
        big = CM5Model(nodes=512)
        # collectives grow logarithmically with machine size
        assert big.reduction_time(0) > small.reduction_time(0)
        assert big.reduction_time(0) - small.reduction_time(0) <= 7 * big.hw_cycle

    def test_translation_independent_of_nodes(self):
        assert CM5Model(nodes=8).translation_time(64) == CM5Model(
            nodes=512
        ).translation_time(64)

    @given(st.integers(1, 2000))
    @settings(max_examples=50, deadline=None)
    def test_ordering_all_sizes(self, size):
        cm5 = CM5Model()
        assert cm5.reduction_time(size) <= cm5.broadcast_time(size)
        assert cm5.translation_time(size) < cm5.general_time(size)

    def test_large_payload_collectives_still_cheap(self):
        cm5 = CM5Model()
        assert cm5.broadcast_time(10_000) < cm5.general_time(10_000)


class TestPhaseReports:
    def test_phased_time_and_total(self):
        machine = MeshModel(2, 2, params=CostParams(alpha=1, beta=1, gamma=0))
        phases = [
            [Message((0, 0), (0, 1), size=2)],
            [Message((0, 1), (1, 1), size=3)],
        ]
        reports = [machine.time_phase(p) for p in phases]
        assert [r.time for r in reports] == [3.0, 4.0]
        assert machine.time_phases(phases) == sum(r.time for r in reports)

    def test_report_describe(self):
        rep = MeshModel(2, 2).time_phase([Message((0, 0), (1, 1), size=4)])
        text = rep.describe()
        assert "link_load" in text and "msgs=1" in text

    def test_empty_phase(self):
        rep = MeshModel(2, 2).time_phase([])
        assert rep.time == 0.0
        assert rep.total_messages == 0

    def test_gamma_latency_component(self):
        p = CostParams(alpha=0, beta=0, gamma=2.0)
        rep = MeshModel(1, 5, params=p).time_phase(
            [Message((0, 0), (0, 4), size=1)]
        )
        assert rep.time == 8.0  # 4 hops * gamma

    def test_cost_params_scaled(self):
        p = CostParams().scaled(alpha=99.0)
        assert p.alpha == 99.0
        assert p.beta == CostParams().beta
