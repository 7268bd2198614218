"""The metrics registry: get-or-create semantics, type safety,
providers and the unified snapshot over the formerly bespoke cache
stats surfaces."""

import json

import pytest

from repro.obs import metrics
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestPrimitives:
    def test_counter(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.reset()
        assert c.value == 0

    def test_gauge(self):
        g = Gauge("g")
        g.set(3.5)
        assert g.value == 3.5

    def test_histogram(self):
        h = Histogram("h")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0,
                        "mean": 2.0}

    def test_empty_histogram_snapshot(self):
        assert Histogram("h").snapshot()["mean"] is None


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            reg.gauge("x")

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(2.0)
        reg.histogram("c").observe(1.0)
        reg.register_provider("prov", lambda: {"k": 1})
        snap = reg.snapshot()
        json.dumps(snap)
        assert snap["a"] == 1
        assert snap["b"] == 2.0
        assert snap["c"]["count"] == 1
        assert snap["prov"] == {"k": 1}

    def test_broken_provider_degrades_to_error_stub(self):
        reg = MetricsRegistry()

        def boom():
            raise RuntimeError("nope")

        reg.register_provider("bad", boom)
        assert "RuntimeError" in reg.snapshot()["bad"]["error"]

    def test_clear_resets_values_keeps_registrations(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        c.inc(7)
        reg.register_provider("p", lambda: {})
        reg.clear()
        assert reg.counter("a") is c
        assert c.value == 0
        assert "p" in reg.provider_names()


class TestUnifiedSurfaces:
    """Satellite: the three bespoke stats surfaces report through one
    obs namespace, while their public accessors stay intact."""

    def test_linalg_cache_reports_through_registry(self):
        from repro.linalg import smith_normal_form
        from repro.linalg.cache import get_cache
        from repro.linalg.intmat import IntMat

        cache = get_cache("smith_normal_form")
        cache.clear()
        a = IntMat([[2, 0], [0, 3]])
        smith_normal_form(a)
        smith_normal_form(a)
        assert cache.hits == 1 and cache.misses == 1
        snap = metrics.snapshot()
        assert snap["linalg.cache.smith_normal_form.hits"] == 1
        assert snap["linalg.cache"]["smith_normal_form"]["hits"] == 1

    def test_route_cache_provider_in_snapshot(self):
        from repro.machine.routecache import (
            clear_route_caches,
            route_cache_for,
        )
        from repro.machine.topology import Mesh

        clear_route_caches()
        cache = route_cache_for(Mesh(2, 2))
        cache.link_ids((0, 0), (1, 1))
        cache.link_ids((0, 0), (1, 1))
        section = metrics.snapshot()["machine.routecache"]
        (stats,) = section.values()
        assert stats["hits"] == 1 and stats["misses"] == 1
        clear_route_caches()

    def test_route_cache_instances_are_independent(self):
        from repro.machine.routecache import RouteCache
        from repro.machine.topology import Mesh

        a = RouteCache(Mesh(2, 2))
        b = RouteCache(Mesh(2, 2))
        a.link_ids((0, 0), (0, 1))
        assert a.misses == 1 and b.misses == 0
        a.clear()
        assert a.misses == 0

    def test_compile_cache_provider_and_shim(self):
        from repro.campaign import compile_cache_stats

        stats = compile_cache_stats()
        assert set(stats) == {
            "hits",
            "misses",
            "size",
            "maxsize",
            "disk_hits",
            "disk_misses",
            "disk_writes",
            "dir",
        }
        assert metrics.snapshot()["campaign.compile_cache"] == stats
