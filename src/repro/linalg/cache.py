"""Memoization layer for the exact normal-form machinery.

Every :class:`~repro.linalg.intmat.IntMat` is immutable and hashable,
and the normal-form computations are pure functions of their matrix
arguments, while one compile re-reduces the same handful of access /
allocation matrices many times.  This module provides an LRU-bounded
memo cache keyed on the (hashable) arguments, with hit/miss counters
exposed for tests and for the perf-tracking harness.

The memoized linalg functions are ``right_hermite``, ``rank``,
``unimodular_inverse``, ``smith_normal_form``, ``best_left_inverse``,
``integer_kernel_basis`` and ``kernel_difference_directions``;
:func:`cache_stats` lists every registered cache by name.

Usage::

    @memoize_normal_form("smith_normal_form")
    def smith_normal_form(a_mat): ...

The wrapped function gains a ``.cache`` attribute (a
:class:`NormalFormCache`) and a ``.cache_clear()`` method; the
uncached original stays reachable as ``.__wrapped__`` (used by the
bit-identity tests).  All caches register globally so
:func:`cache_stats` / :func:`clear_caches` can report and reset them
at once.

Returned values are shared between hits: they are tuples of immutable
matrices (or ``None``), so sharing is safe.

Size: the decorator's ``maxsize`` argument, else
:data:`DEFAULT_LINALG_CACHE_SIZE` (1024) entries per function.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import wraps
from typing import Callable, Dict, Optional

from ..obs.metrics import counter as _obs_counter
from ..obs.metrics import register_provider as _register_provider

DEFAULT_LINALG_CACHE_SIZE = 1024

_MISSING = object()


class NormalFormCache:
    """A small LRU cache with hit/miss accounting.

    Hit/miss counts live in the observability metrics registry
    (:mod:`repro.obs.metrics`) under ``<namespace>.<name>.{hits,misses}``
    — ``linalg.cache`` by default, overridable so other subsystems (the
    dependence-analysis memos count under ``ir.dependence.cache``) reuse
    the same LRU/accounting machinery; ``.hits`` / ``.misses`` remain
    plain-int properties for existing callers and tests.
    """

    __slots__ = ("name", "maxsize", "_hits", "_misses", "_data")

    def __init__(
        self,
        name: str,
        maxsize: Optional[int] = None,
        namespace: str = "linalg.cache",
    ):
        self.name = name
        self.maxsize = (
            DEFAULT_LINALG_CACHE_SIZE if maxsize is None else int(maxsize)
        )
        if self.maxsize <= 0:
            raise ValueError("cache size must be positive")
        self._hits = _obs_counter(f"{namespace}.{self.name}.hits")
        self._misses = _obs_counter(f"{namespace}.{self.name}.misses")
        # a (re)created cache starts empty, so its counters restart too
        self._hits.reset()
        self._misses.reset()
        self._data: OrderedDict = OrderedDict()

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def get(self, key):
        """Cached value for ``key`` or the ``_MISSING`` sentinel."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self._misses.inc()
        else:
            self._hits.inc()
            self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()
        self._hits.reset()
        self._misses.reset()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "maxsize": self.maxsize,
        }


_REGISTRY: Dict[str, NormalFormCache] = {}


def memoize_normal_form(
    name: Optional[str] = None, maxsize: Optional[int] = None
) -> Callable:
    """Decorator: memoize a pure function of hashable arguments.

    The cache key is the positional argument tuple (plus sorted kwargs
    when present); :class:`~repro.linalg.intmat.IntMat` hashes by
    value, so equal matrices share entries.
    """

    def decorate(fn: Callable) -> Callable:
        # re-registering a name (module reload, dual-path import)
        # replaces the old cache rather than erroring at import time
        cache = NormalFormCache(name or fn.__name__, maxsize)
        _REGISTRY[cache.name] = cache

        @wraps(fn)
        def wrapper(*args, **kwargs):
            key = args if not kwargs else args + tuple(sorted(kwargs.items()))
            value = cache.get(key)
            if value is _MISSING:
                value = fn(*args, **kwargs)
                cache.put(key, value)
            return value

        wrapper.cache = cache
        wrapper.cache_clear = cache.clear
        return wrapper

    return decorate


def get_cache(name: str) -> NormalFormCache:
    """The registered cache called ``name`` (KeyError if absent)."""
    return _REGISTRY[name]


def cache_stats() -> Dict[str, Dict[str, int]]:
    """``{function name: {hits, misses, size, maxsize}}`` for every
    registered normal-form cache."""
    return {name: cache.stats() for name, cache in sorted(_REGISTRY.items())}


def clear_caches() -> None:
    """Empty every registered cache and reset its counters."""
    for cache in _REGISTRY.values():
        cache.clear()


# full stats (size/maxsize included) ride along in obs snapshots
_register_provider("linalg.cache", cache_stats)
