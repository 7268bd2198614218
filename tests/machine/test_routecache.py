"""Tests for the vectorized mesh-simulation core.

Covers the RouteCache link-id layout (2-D and 3-D, pinned to literal
id arrays), LRU behaviour, bit-identity of the vectorized simulators
against the pure-Python baselines, and the reconciled hop semantics
(``Mesh.hops`` == ``route_hops(route)`` everywhere — the head-of-line
edge the event simulator used to paper over with a ``max(0, ...)``
clamp).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import (
    CostParams,
    EventSimulator,
    Mesh,
    MeshModel,
    Message,
    RouteCache,
    clear_route_caches,
    route_cache_for,
)
from oracles import machine as oracle
from oracles.machine import phase_time_python, simulate_python

PARAMS = CostParams(alpha=10.0, beta=1.0, gamma=0.5)


def time_phase(mesh, msgs, params):
    """The production pricing of one phase (a one-segment kernel
    launch)."""
    return MeshModel(*mesh.dims, params=params).time_phase(msgs)


def random_messages(mesh, nmsg, seed, local_fraction=0.2):
    rng = random.Random(seed)
    nodes = list(mesh.nodes())
    out = []
    for _ in range(nmsg):
        if rng.random() < local_fraction:
            n = rng.choice(nodes)
            out.append(Message(src=n, dst=n, size=rng.randint(1, 8)))
        else:
            src, dst = rng.sample(nodes, 2)
            out.append(Message(src=src, dst=dst, size=rng.randint(1, 8)))
    return out


class TestOracleRoute:
    """The oracles' frozen walk is the route ``Mesh.route`` builds."""

    @pytest.mark.parametrize("sides", [(3, 4), (1, 5), (2, 3, 4)])
    def test_matches_mesh_route_all_pairs(self, sides):
        mesh = Mesh(*sides)
        nodes = list(mesh.nodes())
        for src in nodes:
            for dst in nodes:
                assert oracle.route(src, dst) == mesh.route(src, dst)
                assert oracle.hops(src, dst) == mesh.hops(src, dst)


class TestRouteIds2D:
    def test_ids_match_xy_route_all_pairs(self):
        mesh = Mesh(4, 5)
        cache = RouteCache(mesh)
        for src in mesh.nodes():
            for dst in mesh.nodes():
                ids = cache.link_ids(src, dst)
                ref = [cache.link_id(l) for l in mesh.route(src, dst)]
                assert list(ids) == ref

    def test_ids_are_dense_and_unique(self):
        mesh = Mesh(3, 3)
        cache = RouteCache(mesh)
        seen = set()
        for src in mesh.nodes():
            for dst in mesh.nodes():
                ids = list(cache.link_ids(src, dst))
                assert len(set(ids)) == len(ids)  # no link twice per route
                assert all(0 <= i < cache.num_links for i in ids)
                seen.update(ids)
        # every link of the mesh is used by some pair
        assert seen == set(range(cache.num_links))

    def test_local_route_empty(self):
        cache = RouteCache(Mesh(2, 2))
        assert cache.link_ids((1, 1), (1, 1)).shape == (0,)

    def test_outside_mesh_rejected(self):
        cache = RouteCache(Mesh(2, 2))
        with pytest.raises(ValueError):
            cache.link_ids((0, 0), (5, 0))

    def test_arrays_read_only(self):
        cache = RouteCache(Mesh(3, 3))
        ids = cache.link_ids((0, 0), (2, 2))
        with pytest.raises(ValueError):
            ids[0] = 99


class TestRouteIds3D:
    def test_ids_match_xyz_route_all_pairs(self):
        mesh = Mesh(2, 3, 2)
        cache = RouteCache(mesh)
        for src in mesh.nodes():
            for dst in mesh.nodes():
                ids = cache.link_ids(src, dst)
                ref = [cache.link_id(l) for l in mesh.route(src, dst)]
                assert list(ids) == ref

    def test_all_links_covered(self):
        mesh = Mesh(2, 2, 2)
        cache = RouteCache(mesh)
        seen = set()
        for src in mesh.nodes():
            for dst in mesh.nodes():
                seen.update(cache.link_ids(src, dst).tolist())
        assert seen == set(range(cache.num_links))


class TestLinkIdLayout:
    """Literal link-id arrays of the closed-form layout.  The checks
    above compare the cache with its own ``link_id``, so a change of
    layout would pass them; these ids pin the layout the golden prices
    and store digests were recorded with."""

    def test_2x3_mesh(self):
        cache = RouteCache(Mesh(2, 3))
        assert cache.num_links == 26
        cases = {
            # +axis 1 (east) twice, then +axis 0 (south)
            ((0, 0), (1, 2)): [0, 12, 13, 22, 11],
            # -axis 1 (west) twice, then -axis 0 (north)
            ((1, 2), (0, 0)): [5, 19, 18, 23, 6],
            ((0, 2), (1, 0)): [2, 17, 16, 20, 9],
            ((1, 0), (0, 1)): [3, 14, 24, 7],
            ((0, 1), (0, 1)): [],
        }
        for (src, dst), ids in cases.items():
            assert cache.link_ids(src, dst).tolist() == ids

    def test_2x2x2_mesh(self):
        cache = RouteCache(Mesh(2, 2, 2))
        assert cache.num_links == 40
        cases = {
            # +z, +y, +x
            ((0, 0, 0), (1, 1, 1)): [0, 16, 25, 35, 15],
            # -z, -y, -x
            ((1, 1, 1), (0, 0, 0)): [7, 23, 30, 36, 8],
            # +z, -y, +x
            ((0, 1, 0), (1, 0, 1)): [2, 17, 29, 33, 13],
            # -z, +y, -x
            ((1, 0, 1), (0, 1, 0)): [5, 22, 26, 38, 10],
            ((1, 1, 0), (1, 1, 1)): [6, 19, 15],
        }
        for (src, dst), ids in cases.items():
            assert cache.link_ids(src, dst).tolist() == ids


class TestRouteCacheLRU:
    def test_hit_returns_identical_object(self):
        cache = RouteCache(Mesh(3, 3))
        a = cache.link_ids((0, 0), (2, 2))
        b = cache.link_ids((0, 0), (2, 2))
        assert a is b
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_respects_lru_bound(self):
        cache = RouteCache(Mesh(3, 3), maxsize=2)
        cache.link_ids((0, 0), (1, 1))
        cache.link_ids((0, 0), (2, 2))
        cache.link_ids((0, 0), (0, 1))  # evicts the (1,1) entry
        assert len(cache) == 2
        assert ((0, 0), (1, 1)) not in cache
        assert ((0, 0), (2, 2)) in cache

    def test_lru_recency_ordering(self):
        cache = RouteCache(Mesh(3, 3), maxsize=2)
        cache.link_ids((0, 0), (1, 1))
        cache.link_ids((0, 0), (2, 2))
        cache.link_ids((0, 0), (1, 1))  # refresh -> (2,2) is now oldest
        cache.link_ids((0, 0), (0, 1))
        assert ((0, 0), (1, 1)) in cache
        assert ((0, 0), (2, 2)) not in cache

    def test_stats_and_clear(self):
        cache = RouteCache(Mesh(2, 2))
        cache.link_ids((0, 0), (1, 1))
        cache.link_ids((0, 0), (1, 1))
        s = cache.stats()
        assert s["hits"] == 1 and s["misses"] == 1 and s["size"] == 1
        cache.clear()
        assert cache.stats()["size"] == 0 and cache.hits == 0

    def test_registry_shares_cache_per_mesh(self):
        clear_route_caches()
        c1 = route_cache_for(Mesh(4, 4))
        c2 = route_cache_for(Mesh(4, 4))
        assert c1 is c2
        c3 = route_cache_for(Mesh(2, 2, 2))
        assert isinstance(c3, RouteCache)


class TestVectorizedBitIdentity:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_phase_time_matches_python(self, seed):
        mesh = Mesh(4, 5)
        msgs = random_messages(mesh, 30, seed)
        assert time_phase(mesh, msgs, PARAMS) == phase_time_python(
            mesh, msgs, PARAMS
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_eventsim_matches_python(self, seed):
        mesh = Mesh(4, 5)
        msgs = random_messages(mesh, 30, seed)
        sim = EventSimulator(mesh, PARAMS)
        assert sim.run(msgs) == simulate_python(sim, msgs)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_phase_time_3d_matches_python(self, seed):
        mesh = Mesh(2, 3, 2)
        msgs = random_messages(mesh, 20, seed)
        assert time_phase(mesh, msgs, PARAMS) == phase_time_python(
            mesh, msgs, PARAMS
        )

    def test_empty_phase(self):
        mesh = Mesh(2, 2)
        assert time_phase(mesh, [], PARAMS) == phase_time_python(
            mesh, [], PARAMS
        )
        assert EventSimulator(mesh, PARAMS).run([]) == 0.0

    def test_huge_sizes_stay_exact(self):
        """Loads past 2**53, where float64 sums would round, stay
        bit-identical to the Python dict sums."""
        mesh = Mesh(2, 2)
        big = 2 ** 52
        msgs = [Message((0, 0), (1, 1), size=big) for _ in range(5)]
        fast = time_phase(mesh, msgs, PARAMS)
        slow = phase_time_python(mesh, msgs, PARAMS)
        assert fast == slow
        assert fast.max_link_load == 5 * big  # exact, no float rounding

    def test_all_local_phase(self):
        mesh = Mesh(2, 2)
        msgs = [Message((0, 0), (0, 0), size=5), Message((1, 1), (1, 1))]
        rep = time_phase(mesh, msgs, PARAMS)
        assert rep.time == 0.0 and rep.local_messages == 2
        assert rep == phase_time_python(mesh, msgs, PARAMS)


class TestHopSemantics:
    """Satellite: Mesh.hops and route lengths must agree everywhere."""

    def test_route_hops_agree_2d(self):
        mesh = Mesh(4, 5)
        for src in mesh.nodes():
            for dst in mesh.nodes():
                route = mesh.route(src, dst)
                assert Mesh.route_hops(route) == mesh.hops(src, dst)

    def test_route_hops_agree_3d(self):
        mesh = Mesh(2, 3, 2)
        for src in mesh.nodes():
            for dst in mesh.nodes():
                route = mesh.route(src, dst)
                assert Mesh.route_hops(route) == mesh.hops(src, dst)

    def test_neighbor_message_pays_one_hop(self):
        """A 1-hop neighbour message has route inj + net + eje: the
        simulator must charge gamma for exactly one hop, matching
        ``Mesh.hops`` (the old ``len(route) - 2`` clamp also gave 1
        here, but only because no remote route can be inj + eje only —
        the invariant now asserted above)."""
        mesh = Mesh(1, 2)
        params = CostParams(alpha=0.0, beta=2.0, gamma=7.0)
        sim = EventSimulator(mesh, params)
        msgs = [Message((0, 0), (0, 1), size=3)]
        expected = params.beta * 3 + params.gamma * 1
        assert sim.run(msgs) == expected
        assert simulate_python(sim, msgs) == expected
        rep = time_phase(mesh, msgs, params)
        assert rep.max_hops == 1

    def test_local_message_costs_nothing_in_sim(self):
        mesh = Mesh(2, 2)
        sim = EventSimulator(mesh, PARAMS)
        assert sim.run([Message((0, 0), (0, 0), size=100)]) == 0.0
