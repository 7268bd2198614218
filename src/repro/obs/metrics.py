"""The metrics registry: counters and providers.

One process-wide :class:`MetricsRegistry` (module-level ``REGISTRY``)
holds every metric under a dotted namespace, get-or-create style::

    from repro.obs import counter

    counter("campaign.compile_cache.hits").inc()

``snapshot()`` exports everything as one plain, JSON-serializable dict
— counters as numbers — plus the output of registered **providers**:
callables contributing structured sections for state that lives
elsewhere (the per-mesh route caches, the linalg normal-form caches,
the compile LRU).  Providers are how the three formerly bespoke stats
surfaces report through one namespace without obs owning their
storage.

Metric updates are plain attribute arithmetic (GIL-coalesced, not
strictly atomic across free-running threads) — the campaign paths that
feed them are single-threaded per process, and worker-process metrics
travel back through task results, not shared memory.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List


class Counter:
    """A monotonically increasing count (resettable for tests)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str = ""):
        self.name = name
        self._value = 0

    def inc(self, n: int = 1) -> None:
        self._value += n

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        self._value = 0


class MetricsRegistry:
    """Name → counter map with a get-or-create accessor, and
    providers."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Counter] = {}
        self._providers: Dict[str, Callable[[], Dict]] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            m = self._metrics.get(name)
            if m is None:
                m = self._metrics[name] = Counter(name)
            return m

    def register_provider(self, name: str, fn: Callable[[], Dict]) -> None:
        """Register (or replace) a snapshot section computed on demand —
        for stats whose storage lives outside the registry."""
        with self._lock:
            self._providers[name] = fn

    def provider_names(self) -> List[str]:
        with self._lock:
            return sorted(self._providers)

    def snapshot(self, providers: bool = True) -> Dict:
        """Everything as one plain (JSON-serializable) dict: counters
        by value, provider sections under their registered names.  A
        provider that raises contributes an ``{"error": ...}`` stub
        rather than sinking the whole export."""
        with self._lock:
            metrics = dict(self._metrics)
            provs = dict(self._providers) if providers else {}
        out: Dict = {}
        for name in sorted(metrics):
            out[name] = metrics[name].value
        for name in sorted(provs):
            try:
                out[name] = provs[name]()
            except Exception as exc:  # pragma: no cover - defensive
                out[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return out

    def clear(self) -> None:
        """Reset every registered metric (registrations and providers
        survive; only the values go back to zero)."""
        with self._lock:
            for m in self._metrics.values():
                m.reset()


#: the process-wide default registry
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def register_provider(name: str, fn: Callable[[], Dict]) -> None:
    REGISTRY.register_provider(name, fn)


def snapshot(providers: bool = True) -> Dict:
    return REGISTRY.snapshot(providers=providers)


def clear_metrics() -> None:
    REGISTRY.clear()
