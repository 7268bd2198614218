"""Additional pattern-generator and model tests: coalescing,
translations, boundary behaviour, parameter scaling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomp import L, U
from repro.distribution import (
    BlockDistribution,
    CyclicDistribution,
    Distribution2D,
    GroupedDistribution,
)
from repro.linalg import IntMat
from repro.machine import (
    CostParams,
    Mesh,
    Message,
    MeshModel,
    affine_pattern,
    coalesce,
    decomposed_phases,
    message_counts,
    translation_pattern,
)


def _dist(n=8, p=2, q=2):
    return Distribution2D(BlockDistribution(n, p), BlockDistribution(n, q))


class TestCoalesce:
    def test_merges_pairs(self):
        msgs = [
            Message((0, 0), (0, 1), size=2),
            Message((0, 0), (0, 1), size=3),
            Message((0, 0), (1, 1), size=1),
        ]
        merged = coalesce(msgs)
        assert len(merged) == 2
        sizes = {(m.src, m.dst): m.size for m in merged}
        assert sizes[((0, 0), (0, 1))] == 5

    def test_volume_conserved(self):
        msgs = [
            Message((0, 0), (1, 1), size=k) for k in range(1, 6)
        ]
        merged = coalesce(msgs)
        assert sum(m.size for m in merged) == sum(m.size for m in msgs)

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_property_conservation(self, seed):
        import random

        rng = random.Random(seed)
        nodes = [(i, j) for i in range(2) for j in range(2)]
        msgs = [
            Message(rng.choice(nodes), rng.choice(nodes), size=rng.randint(1, 5))
            for _ in range(rng.randint(0, 20))
        ]
        merged = coalesce(msgs)
        assert sum(m.size for m in merged) == sum(m.size for m in msgs)
        assert len({(m.src, m.dst) for m in merged}) == len(merged)


class TestTranslation:
    def test_zero_offset_all_local(self):
        msgs = translation_pattern(_dist(), (0, 0))
        assert all(m.is_local for m in msgs)

    def test_no_wrap_drops_boundary(self):
        wrapped = translation_pattern(_dist(), (1, 0), wrap=True, merge=False)
        clipped = translation_pattern(_dist(), (1, 0), wrap=False, merge=False)
        assert len(clipped) < len(wrapped)

    def test_translation_cheaper_than_general(self):
        machine = MeshModel(2, 2)
        dist = _dist()
        tr = machine.time_phase(translation_pattern(dist, (1, 0), size=4)).time
        gen = machine.time_general(dist, IntMat([[1, 3], [2, 7]]), size=4)
        assert tr < gen


class TestAffinePattern:
    def test_identity_all_local(self):
        msgs = affine_pattern(_dist(), IntMat.identity(2))
        assert all(m.is_local for m in msgs)

    def test_rejects_non_2x2(self):
        with pytest.raises(ValueError):
            affine_pattern(_dist(), IntMat.identity(3))

    def test_element_count_without_merge(self):
        n = 8
        msgs = affine_pattern(_dist(n), U(1), merge=False)
        assert len(msgs) == n * n

    def test_decomposed_phases_order(self):
        # phases apply right-to-left: factors [L, U] -> [U phase, L phase]
        dist = _dist()
        phases = decomposed_phases(dist, [L(1), U(1)], size=1)
        assert len(phases) == 2


class TestModelScaling:
    def test_time_scales_with_alpha(self):
        dist = _dist()
        t = IntMat([[1, 1], [1, 2]])
        cheap = MeshModel(2, 2, params=CostParams(alpha=1.0))
        dear = MeshModel(2, 2, params=CostParams(alpha=100.0))
        assert dear.time_general(dist, t) > cheap.time_general(dist, t)

    def test_time_scales_with_payload(self):
        machine = MeshModel(2, 2)
        dist = _dist()
        t = IntMat([[1, 1], [1, 2]])
        assert machine.time_general(dist, t, size=8) > machine.time_general(
            dist, t, size=1
        )

    def test_bigger_mesh_shorter_or_equal_loads(self):
        # same virtual traffic spread over more processors: the
        # bottleneck link load cannot grow
        n = 16
        t = IntMat([[1, 1], [0, 1]])
        small = MeshModel(2, 2)
        big = MeshModel(4, 4)
        d_small = Distribution2D(
            CyclicDistribution(n, 2), CyclicDistribution(n, 2)
        )
        d_big = Distribution2D(
            CyclicDistribution(n, 4), CyclicDistribution(n, 4)
        )
        rep_small = small.time_phase(affine_pattern(d_small, t, size=2))
        rep_big = big.time_phase(affine_pattern(d_big, t, size=2))
        assert rep_big.max_link_load <= rep_small.max_link_load * 2


class TestGroupedInteraction:
    @given(st.integers(1, 6), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_grouped_never_worse_than_block_for_matching_stride(self, k, p):
        n = 2 * k * p  # keep classes balanced
        machine = MeshModel(p, 2)
        grouped = Distribution2D(
            GroupedDistribution(n, p, k=k), BlockDistribution(n, 2)
        )
        block = Distribution2D(
            BlockDistribution(n, p), BlockDistribution(n, 2)
        )
        tg = machine.time_phase(affine_pattern(grouped, U(k), size=2)).time
        tb = machine.time_phase(affine_pattern(block, U(k), size=2)).time
        assert tg <= tb + 1e-9
