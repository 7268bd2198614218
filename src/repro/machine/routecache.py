"""Precomputed integer link ids and cached NumPy route arrays.

The event-driven simulator (:mod:`repro.machine.eventsim`) used to
rebuild every dimension-order route as a list of tuple-keyed links and
probe a Python dict once per link per message.  This module replaces
both costs:

* every directed link of a mesh gets a dense **integer id** computed by
  closed-form arithmetic (no enumeration, no dict of tuples);
* every ``(src, dst)`` pair maps to a **read-only NumPy array of link
  ids** along the dimension-order route, memoized in an LRU-bounded
  cache (one cache per mesh).

With ids in hand the event simulator's per-link dict probes become
array ``max`` / assignment over id slices.  The simulator is the
cache's only user in ``repro``: the analytic contention kernel
:func:`~repro.machine.contention.phase_times_segmented` gathers no
route, it sums each message's interval along the same dimension-order
lines.

Link-id layout of a :class:`~repro.machine.topology.Mesh` with sides
``d_0 .. d_{m-1}`` and ``N`` nodes, for any rank ``m``:

1. ``("inj", v)`` is ``flat(v)``, ``("eje", v)`` is ``N + flat(v)``,
   where ``flat`` is the row-major node index;
2. then, per axis ``a`` from the last to the first (the routing order),
   a block of ``+`` links followed by a block of ``-`` links.  Each
   block holds ``L_a`` ids, ``L_a`` being the node count of ``dims``
   with ``d_a`` shortened by 1, and is row-major over those shortened
   dims;
3. a ``+`` link ``v -> v + e_a`` is indexed by its source ``v``, a
   ``-`` link ``v -> v - e_a`` by its destination ``v - e_a``.

On a ``p x q`` mesh (``H = p*(q-1)``, ``V = (p-1)*q``) that reads:

======================  =======================  =====================
link                    id                       range
======================  =======================  =====================
``("inj", (i,j))``      ``i*q + j``              ``[0, N)``
``("eje", (i,j))``      ``N + i*q + j``          ``[N, 2N)``
east  ``(i,j)->(i,j+1)``  ``2N + i*(q-1) + j``   ``[2N, 2N+H)``
west  ``(i,j)->(i,j-1)``  ``2N + H + i*(q-1) + (j-1)``  next ``H``
south ``(i,j)->(i+1,j)``  ``2N + 2H + i*q + j``  next ``V``
north ``(i,j)->(i-1,j)``  ``2N + 2H + V + (i-1)*q + j``  next ``V``
======================  =======================  =====================

Cache bounds (module constants; routes are byte-identical whatever
the caches hold):

* :data:`DEFAULT_ROUTE_CACHE_SIZE` — max ``(src, dst)`` entries per
  mesh cache (65536; the constructor's ``maxsize`` overrides it);
* :data:`DEFAULT_MESH_CACHES` — max meshes with a live cache in the
  module-level registry used by :func:`route_cache_for` (8).
"""

from __future__ import annotations

from collections import OrderedDict
from operator import mul
from typing import Dict, Optional, Tuple

import numpy as np

from ..obs.metrics import Counter as _Counter
from ..obs.metrics import register_provider as _register_provider

DEFAULT_ROUTE_CACHE_SIZE = 65536
DEFAULT_MESH_CACHES = 8


class RouteCache:
    """Integer link ids + cached dimension-order route-id arrays for a
    :class:`~repro.machine.topology.Mesh` of any rank.

    Hit/miss accounting uses per-instance observability counters
    (:class:`repro.obs.metrics.Counter`); caches are per-mesh objects
    that tests construct freshly, so the counters are instance-local
    and the module-level registry is exported to metric snapshots
    through a provider (``machine.routecache``) instead of global
    counter names.
    """

    __slots__ = (
        "mesh", "maxsize", "num_links", "_hits", "_misses", "_routes",
        "_n", "_node_strides", "_axes",
    )

    def __init__(self, mesh, maxsize: Optional[int] = None):
        self.mesh = mesh
        self.maxsize = DEFAULT_ROUTE_CACHE_SIZE if maxsize is None else int(maxsize)
        if self.maxsize <= 0:
            raise ValueError("route cache size must be positive")
        self._hits = _Counter("machine.routecache.hits")
        self._misses = _Counter("machine.routecache.misses")
        self._routes: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
        dims = tuple(mesh.dims)
        n = self._n = mesh.size
        self._node_strides = _row_major_strides(dims)
        # per axis, in routing order: (axis, + block base, - block base,
        # row-major strides over dims with that axis shortened by 1)
        axes = []
        base = 2 * n
        for a in reversed(range(len(dims))):
            short = dims[:a] + (dims[a] - 1,) + dims[a + 1:]
            block = n // dims[a] * (dims[a] - 1)
            axes.append((a, base, base + block, _row_major_strides(short)))
            base += 2 * block
        self._axes = tuple(axes)
        self.num_links = base

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def link_ids(self, src, dst) -> np.ndarray:
        """Read-only int64 array of link ids along the route; empty for
        a local message."""
        key = (src, dst)
        routes = self._routes
        ids = routes.get(key)
        if ids is not None:
            self._hits.inc()
            routes.move_to_end(key)
            return ids
        self._misses.inc()
        ids = self._build(src, dst)
        ids.flags.writeable = False
        routes[key] = ids
        if len(routes) > self.maxsize:
            routes.popitem(last=False)
        return ids

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, key) -> bool:
        return tuple(key) in self._routes

    def clear(self) -> None:
        self._routes.clear()
        self._hits.reset()
        self._misses.reset()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._routes),
            "maxsize": self.maxsize,
            "num_links": self.num_links,
        }

    def link_id(self, link) -> int:
        """Id of an explicit :data:`~repro.machine.topology.Link` tuple
        (the inverse of the closed-form layout; used for verification)."""
        kind = link[0]
        if kind == "inj":
            return _dot(link[1], self._node_strides)
        if kind == "eje":
            return self._n + _dot(link[1], self._node_strides)
        src, dst = link[1], link[2]
        moved = [a for a, (s, d) in enumerate(zip(src, dst)) if s != d]
        if len(moved) == 1:
            a = moved[0]
            for axis, plus, minus, strides in self._axes:
                if axis != a:
                    continue
                if dst[a] == src[a] + 1:
                    return plus + _dot(src, strides)
                if dst[a] == src[a] - 1:
                    return minus + _dot(dst, strides)
        raise ValueError(f"not a mesh link: {link!r}")

    def _build(self, src, dst) -> np.ndarray:
        mesh = self.mesh
        if not (mesh.contains(src) and mesh.contains(dst)):
            raise ValueError("endpoint outside the mesh")
        if src == dst:
            return np.empty(0, dtype=np.int64)
        ids = [_dot(src, self._node_strides)]
        cur = list(src)
        for a, plus, minus, strides in self._axes:
            s, d = cur[a], dst[a]
            if s == d:
                continue
            step = strides[a]
            # in-block offset of the link at coordinate 0 along axis a,
            # other coordinates as they stand when the route crosses it
            fixed = _dot(cur, strides) - s * step
            if d > s:  # + links indexed by source s .. d-1
                ids.extend(range(plus + fixed + s * step,
                                 plus + fixed + d * step, step))
            else:  # - links indexed by destination s-1 .. d
                ids.extend(range(minus + fixed + (s - 1) * step,
                                 minus + fixed + (d - 1) * step, -step))
            cur[a] = d
        ids.append(self._n + _dot(dst, self._node_strides))
        return np.array(ids, dtype=np.int64)


def _row_major_strides(dims: Tuple[int, ...]) -> Tuple[int, ...]:
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    return tuple(reversed(strides))


def _dot(coords, strides) -> int:
    return sum(map(mul, coords, strides))


# ---------------------------------------------------------------------------
# per-mesh registry
# ---------------------------------------------------------------------------

_MESH_CACHES: "OrderedDict[object, RouteCache]" = OrderedDict()


def route_cache_for(mesh, maxsize: Optional[int] = None) -> RouteCache:
    """The (shared, LRU-registered) route cache of ``mesh``.

    Meshes are hashable frozen dataclasses, so equal meshes share one
    cache; at most :data:`DEFAULT_MESH_CACHES` mesh caches are kept
    alive.  ``maxsize`` only applies when this call creates the cache —
    an already-registered cache is returned as-is, whatever its bound.
    Pass an explicit ``RouteCache(mesh, maxsize=...)`` to the
    simulator instead when isolation or a guaranteed bound is needed
    (tests do).
    """
    cache = _MESH_CACHES.get(mesh)
    if cache is not None:
        _MESH_CACHES.move_to_end(mesh)
        return cache
    cache = RouteCache(mesh, maxsize)
    _MESH_CACHES[mesh] = cache
    while len(_MESH_CACHES) > DEFAULT_MESH_CACHES:
        _MESH_CACHES.popitem(last=False)
    return cache


def clear_route_caches() -> None:
    """Drop every registered mesh cache (tests / memory pressure)."""
    _MESH_CACHES.clear()


def route_cache_stats() -> Dict[str, Dict[str, int]]:
    """Stats of all live registry caches, keyed by mesh repr."""
    return {repr(mesh): cache.stats() for mesh, cache in _MESH_CACHES.items()}


# live registry stats ride along in obs snapshots
_register_provider("machine.routecache", route_cache_stats)
