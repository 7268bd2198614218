"""Precomputed integer link ids and cached NumPy route arrays.

The per-element simulators in :mod:`repro.machine.contention` and
:mod:`repro.machine.eventsim` used to rebuild every XY route as a list
of tuple-keyed links and probe a Python dict once per link per message.
This module replaces both costs:

* every directed link of a mesh gets a dense **integer id** computed by
  closed-form arithmetic (no enumeration, no dict of tuples);
* every ``(src, dst)`` pair maps to a **read-only NumPy array of link
  ids** along the dimension-order route, built by slice arithmetic and
  memoized in an LRU-bounded cache (one cache per mesh).

With ids in hand the analytic contention bound becomes one
``np.bincount`` over all messages of a phase, and the event simulator's
per-link dict probes become array ``max`` / assignment over id slices.

Link-id layout for a ``p x q`` :class:`~repro.machine.topology.Mesh2D`
(``N = p*q`` nodes, ``H = p*(q-1)`` horizontal and ``V = (p-1)*q``
vertical mesh channels per direction):

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

The 3-D layout (:class:`RouteCache3D`) is the natural extension with
the dimension-order of :meth:`~repro.machine.topology3d.Mesh3D.xyz_route`
(last axis first).

Cache bounds (module constants; routes are byte-identical whatever
the caches hold):

* :data:`DEFAULT_ROUTE_CACHE_SIZE` — max ``(src, dst)`` entries per
  mesh cache (65536; the constructors' ``maxsize`` overrides it);
* :data:`DEFAULT_MESH_CACHES` — max meshes with a live cache in the
  module-level registry used by :func:`route_cache_for` (8).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from ..obs.metrics import Counter as _Counter
from ..obs.metrics import register_provider as _register_provider

DEFAULT_ROUTE_CACHE_SIZE = 65536
DEFAULT_MESH_CACHES = 8


class _BaseRouteCache:
    """Shared LRU machinery; subclasses supply ``_build`` and link ids.

    Hit/miss accounting uses per-instance observability counters
    (:class:`repro.obs.metrics.Counter`); caches are per-mesh objects
    that tests construct freshly, so the counters are instance-local
    and the module-level registry is exported to metric snapshots
    through a provider (``machine.routecache``) instead of global
    counter names.
    """

    __slots__ = ("mesh", "maxsize", "_hits", "_misses", "_routes")

    def __init__(self, mesh, maxsize: Optional[int] = None):
        self.mesh = mesh
        self.maxsize = DEFAULT_ROUTE_CACHE_SIZE if maxsize is None else int(maxsize)
        if self.maxsize <= 0:
            raise ValueError("route cache size must be positive")
        self._hits = _Counter("machine.routecache.hits")
        self._misses = _Counter("machine.routecache.misses")
        self._routes: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()

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

    # subclasses -------------------------------------------------------
    num_links: int

    def _build(self, src, dst) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class RouteCache(_BaseRouteCache):
    """Integer link ids + cached XY route-id arrays for a 2-D mesh."""

    __slots__ = ("_n", "_h", "_v")

    def __init__(self, mesh, maxsize: Optional[int] = None):
        super().__init__(mesh, maxsize)
        p, q = mesh.p, mesh.q
        self._n = p * q
        self._h = p * (q - 1)
        self._v = (p - 1) * q

    @property
    def num_links(self) -> int:
        return 2 * self._n + 2 * self._h + 2 * self._v

    def link_id(self, link) -> int:
        """Id of an explicit :data:`~repro.machine.topology.Link` tuple
        (the inverse of the closed-form layout; used for verification)."""
        q = self.mesh.q
        n, h, v = self._n, self._h, self._v
        kind = link[0]
        if kind == "inj":
            (i, j) = link[1]
            return i * q + j
        if kind == "eje":
            (i, j) = link[1]
            return n + i * q + j
        (si, sj), (di, dj) = link[1], link[2]
        if di == si and dj == sj + 1:  # east
            return 2 * n + si * (q - 1) + sj
        if di == si and dj == sj - 1:  # west
            return 2 * n + h + si * (q - 1) + (sj - 1)
        if dj == sj and di == si + 1:  # south
            return 2 * n + 2 * h + si * q + sj
        if dj == sj and di == si - 1:  # north
            return 2 * n + 2 * h + v + (si - 1) * q + sj
        raise ValueError(f"not a mesh link: {link!r}")

    def _build(self, src, dst) -> np.ndarray:
        mesh = self.mesh
        if not (mesh.contains(src) and mesh.contains(dst)):
            raise ValueError("endpoint outside the mesh")
        si, sj = src
        di, dj = dst
        if src == dst:
            return np.empty(0, dtype=np.int64)
        q = mesh.q
        n, h, v = self._n, self._h, self._v
        nh = abs(dj - sj)
        nv = abs(di - si)
        out = np.empty(nh + nv + 2, dtype=np.int64)
        out[0] = si * q + sj
        if dj > sj:  # east links (si, j) -> (si, j+1), j = sj .. dj-1
            out[1 : 1 + nh] = 2 * n + si * (q - 1) + np.arange(sj, dj)
        elif dj < sj:  # west links (si, j) -> (si, j-1), j = sj .. dj+1
            out[1 : 1 + nh] = 2 * n + h + si * (q - 1) + np.arange(sj - 1, dj - 1, -1)
        if di > si:  # south links (i, dj) -> (i+1, dj), i = si .. di-1
            out[1 + nh : 1 + nh + nv] = 2 * n + 2 * h + np.arange(si, di) * q + dj
        elif di < si:  # north links (i, dj) -> (i-1, dj), i = si .. di+1
            out[1 + nh : 1 + nh + nv] = (
                2 * n + 2 * h + v + np.arange(si - 1, di - 1, -1) * q + dj
            )
        out[-1] = n + di * q + dj
        return out


class RouteCache3D(_BaseRouteCache):
    """Integer link ids + cached XYZ route-id arrays for a 3-D mesh.

    Dimension order matches
    :meth:`~repro.machine.topology3d.Mesh3D.xyz_route`: the last axis
    moves first.
    """

    __slots__ = ("_n", "_hz", "_hy", "_hx")

    def __init__(self, mesh, maxsize: Optional[int] = None):
        super().__init__(mesh, maxsize)
        p, q, r = mesh.p, mesh.q, mesh.r
        self._n = p * q * r
        self._hz = p * q * (r - 1)
        self._hy = p * (q - 1) * r
        self._hx = (p - 1) * q * r

    @property
    def num_links(self) -> int:
        return 2 * (self._n + self._hz + self._hy + self._hx)

    def link_id(self, link) -> int:
        q, r = self.mesh.q, self.mesh.r
        n, hz, hy, hx = self._n, self._hz, self._hy, self._hx
        kind = link[0]
        if kind == "inj":
            i, j, k = link[1]
            return (i * q + j) * r + k
        if kind == "eje":
            i, j, k = link[1]
            return n + (i * q + j) * r + k
        (si, sj, sk), (di, dj, dk) = link[1], link[2]
        if (di, dj) == (si, sj) and dk == sk + 1:  # z+
            return 2 * n + (si * q + sj) * (r - 1) + sk
        if (di, dj) == (si, sj) and dk == sk - 1:  # z-
            return 2 * n + hz + (si * q + sj) * (r - 1) + (sk - 1)
        if (di, dk) == (si, sk) and dj == sj + 1:  # y+
            return 2 * n + 2 * hz + (si * (q - 1) + sj) * r + sk
        if (di, dk) == (si, sk) and dj == sj - 1:  # y-
            return 2 * n + 2 * hz + hy + (si * (q - 1) + (sj - 1)) * r + sk
        if (dj, dk) == (sj, sk) and di == si + 1:  # x+
            return 2 * n + 2 * (hz + hy) + (si * q + sj) * r + sk
        if (dj, dk) == (sj, sk) and di == si - 1:  # x-
            return 2 * n + 2 * (hz + hy) + hx + ((si - 1) * q + sj) * r + sk
        raise ValueError(f"not a mesh link: {link!r}")

    def _build(self, src, dst) -> np.ndarray:
        mesh = self.mesh
        if not (mesh.contains(src) and mesh.contains(dst)):
            raise ValueError("endpoint outside the mesh")
        if src == dst:
            return np.empty(0, dtype=np.int64)
        si, sj, sk = src
        di, dj, dk = dst
        q, r = mesh.q, mesh.r
        n, hz, hy, hx = self._n, self._hz, self._hy, self._hx
        nz, ny, nx = abs(dk - sk), abs(dj - sj), abs(di - si)
        out = np.empty(nz + ny + nx + 2, dtype=np.int64)
        out[0] = (si * q + sj) * r + sk
        pos = 1
        if dk > sk:  # z+ at (si, sj, k), k = sk .. dk-1
            out[pos : pos + nz] = 2 * n + (si * q + sj) * (r - 1) + np.arange(sk, dk)
        elif dk < sk:  # z-
            out[pos : pos + nz] = (
                2 * n + hz + (si * q + sj) * (r - 1) + np.arange(sk - 1, dk - 1, -1)
            )
        pos += nz
        if dj > sj:  # y+ at (si, j, dk), j = sj .. dj-1
            out[pos : pos + ny] = (
                2 * n + 2 * hz + (si * (q - 1) + np.arange(sj, dj)) * r + dk
            )
        elif dj < sj:  # y-
            out[pos : pos + ny] = (
                2 * n
                + 2 * hz
                + hy
                + (si * (q - 1) + np.arange(sj - 1, dj - 1, -1)) * r
                + dk
            )
        pos += ny
        if di > si:  # x+ at (i, dj, dk), i = si .. di-1
            out[pos : pos + nx] = (
                2 * n + 2 * (hz + hy) + (np.arange(si, di) * q + dj) * r + dk
            )
        elif di < si:  # x-
            out[pos : pos + nx] = (
                2 * n
                + 2 * (hz + hy)
                + hx
                + (np.arange(si - 1, di - 1, -1) * q + dj) * r
                + dk
            )
        out[-1] = n + (di * q + dj) * r + dk
        return out


def max_link_load(cache: _BaseRouteCache, id_arrays, sizes) -> int:
    """Bottleneck link load of one phase: each message's size is added
    to every link of its id array, vectorized over all messages at once.

    Uses a float64-weighted ``np.bincount`` (the fast path) whenever the
    total volume bounds every partial sum below ``2**53``, where float64
    integer arithmetic is exact; beyond that it falls back to exact
    per-link accumulation so the result stays bit-identical to the
    pure-Python dict sums at any magnitude.
    """
    if not id_arrays:
        return 0
    lens = [a.shape[0] for a in id_arrays]
    # exact arbitrary-precision bound on every partial sum
    total = sum(s * n for s, n in zip(sizes, lens))
    if total <= 2 ** 53:
        all_ids = np.concatenate(id_arrays)
        weights = np.repeat(
            np.asarray(sizes, dtype=np.int64), np.asarray(lens, dtype=np.int64)
        )
        loads = np.bincount(all_ids, weights=weights, minlength=cache.num_links)
        return int(loads.max())
    # pathological magnitudes: exact Python accumulation
    acc: Dict[int, int] = {}
    for ids, size in zip(id_arrays, sizes):
        for i in ids.tolist():
            acc[i] = acc.get(i, 0) + size
    return max(acc.values(), default=0)


def gather_route_ids(
    cache: _BaseRouteCache, senders: np.ndarray, receivers: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Link ids of every ``(senders[i], receivers[i])`` route as one
    ragged gather: ``(flat_ids, lens)`` where ``lens[i]`` is route ``i``'s
    length and ``flat_ids`` is the concatenation of all routes in
    message order.

    The fused pricing kernel's route lookup: instead of probing the
    cache once per message (the per-phase Python loop this replaces),
    the endpoint pairs are deduplicated once — ``unique_rows`` on the
    packed int64 fast path — the cache is probed once per *unique*
    pair, and each message's id slice is materialized by one vectorized
    gather over the unique routes.
    """
    from .backend import unique_rows

    n = senders.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rank = senders.shape[1]
    pairs = np.concatenate((senders, receivers), axis=1)
    upairs, _counts, inverse = unique_rows(pairs, return_inverse=True)
    routes = [
        cache.link_ids(tuple(row[:rank]), tuple(row[rank:]))
        for row in upairs.tolist()
    ]
    ulens = np.array([r.shape[0] for r in routes], dtype=np.int64)
    ustarts = np.concatenate(([0], np.cumsum(ulens)))
    uflat = (
        np.concatenate(routes) if routes else np.empty(0, dtype=np.int64)
    )
    lens = ulens[inverse]
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), lens
    # ragged gather: for message i, rows ustarts[inverse[i]] ..+ lens[i]
    offsets = np.repeat(ustarts[inverse], lens)
    ends = np.cumsum(lens)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - lens, lens)
    return uflat[offsets + within], lens


# ---------------------------------------------------------------------------
# per-mesh registry
# ---------------------------------------------------------------------------

_MESH_CACHES: "OrderedDict[object, _BaseRouteCache]" = OrderedDict()


def route_cache_for(mesh, maxsize: Optional[int] = None) -> _BaseRouteCache:
    """The (shared, LRU-registered) route cache of ``mesh``.

    Meshes are hashable frozen dataclasses, so equal meshes share one
    cache; at most :data:`DEFAULT_MESH_CACHES` mesh caches are kept
    alive.  ``maxsize`` only applies when this call creates the cache —
    an already-registered cache is returned as-is, whatever its bound.
    Pass an explicit ``RouteCache(mesh, maxsize=...)`` to the
    simulators instead when isolation or a guaranteed bound is needed
    (tests do).
    """
    cache = _MESH_CACHES.get(mesh)
    if cache is not None:
        _MESH_CACHES.move_to_end(mesh)
        return cache
    if hasattr(mesh, "r"):
        cache = RouteCache3D(mesh, maxsize)
    else:
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
