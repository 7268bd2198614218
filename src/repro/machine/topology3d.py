"""3-D mesh topology (Cray T3D-style) and dimension-order routing.

Section 5.1 notes that "some current-generation machines have a 2-D
topology (Intel Paragon) or 3-D topology (Cray T3D), hence the cases
m = 2 and m = 3 are of particular practical interest", and the
elementary-matrix machinery is stated for arbitrary dimension.  This
module provides the 3-D substrate: XYZ dimension-order routing with
injection/ejection links, mirroring :class:`~repro.machine.topology.Mesh2D`.

The analytic timing surface is shared with the 2-D mesh: the generic
:func:`~repro.machine.contention.phase_time` works on any mesh with a
route cache, so :func:`phase_time_3d` is its 3-D entry point and
returns the same :class:`~repro.machine.contention.PhaseReport`
(time plus per-link utilization breakdown), not a bare float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from .topology import Message

Node3 = Tuple[int, int, int]
Link = Tuple

#: Point-to-point messages are rank-generic: a 3-D "message" is the
#: same record as a 2-D one, with 3-tuple endpoints.  The historical
#: name is kept for callers of the 3-D pattern generators.
Message3 = Message


@dataclass(frozen=True)
class Mesh3D:
    """A ``P x Q x R`` mesh of physical processors."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        if min(self.p, self.q, self.r) <= 0:
            raise ValueError("mesh dimensions must be positive")

    @property
    def size(self) -> int:
        return self.p * self.q * self.r

    @property
    def dims(self) -> Tuple[int, int, int]:
        """Side lengths, one per physical dimension (the common mesh
        surface shared with :class:`~repro.machine.topology.Mesh2D`)."""
        return (self.p, self.q, self.r)

    @property
    def ndim(self) -> int:
        return 3

    def nodes(self) -> Iterator[Node3]:
        for i in range(self.p):
            for j in range(self.q):
                for k in range(self.r):
                    yield (i, j, k)

    def contains(self, n: Node3) -> bool:
        return (
            0 <= n[0] < self.p and 0 <= n[1] < self.q and 0 <= n[2] < self.r
        )

    def hops(self, src: Node3, dst: Node3) -> int:
        return sum(abs(a - b) for a, b in zip(src, dst))

    @staticmethod
    def route_hops(route: Sequence[Link]) -> int:
        """Network hops of a route from :meth:`xyz_route`; equals
        ``len(route) - 2`` for remote pairs and agrees with
        :meth:`hops` (same invariant as
        :meth:`~repro.machine.topology.Mesh2D.route_hops`)."""
        return 0 if not route else len(route) - 2

    def xyz_route(self, src: Node3, dst: Node3) -> List[Link]:
        """Dimension-order route (last axis first, matching XY order on
        2-D meshes), with injection/ejection links."""
        if not (self.contains(src) and self.contains(dst)):
            raise ValueError("endpoint outside the mesh")
        if src == dst:
            return []
        links: List[Link] = [("inj", src)]
        cur = list(src)
        for axis in (2, 1, 0):
            while cur[axis] != dst[axis]:
                step = 1 if dst[axis] > cur[axis] else -1
                nxt = list(cur)
                nxt[axis] += step
                links.append(("net", tuple(cur), tuple(nxt)))
                cur = nxt
        links.append(("eje", dst))
        return links

    def route(self, src: Node3, dst: Node3) -> List[Link]:
        """Dimension-order route — the rank-generic name every mesh
        exposes (here an alias for :meth:`xyz_route`)."""
        return self.xyz_route(src, dst)


def phase_time_3d(mesh: Mesh3D, messages, params, cache=None):
    """Analytic link-contention bound on a 3-D mesh.

    Same structure — and same implementation — as the 2-D model: the
    generic :func:`~repro.machine.contention.phase_time` consumes cached
    integer link-id arrays and accumulates loads through the shared
    :func:`~repro.machine.routecache.max_link_load` helper; this
    function is the 3-D-named entry point.  Returns a full
    :class:`~repro.machine.contention.PhaseReport`.
    """
    from .contention import phase_time

    return phase_time(mesh, messages, params, cache=cache)


def affine_pattern_3d(
    dists, t_mat, size: int = 1, wrap: bool = True, merge: bool = True
):
    """3-D analogue of :func:`~repro.machine.patterns.affine_pattern`:
    ``dists`` is a triple of 1-D distributions, ``t_mat`` a 3x3 integer
    matrix; every virtual processor ``v`` sends to ``T v``."""
    if t_mat.shape != (3, 3):
        raise ValueError("affine_pattern_3d expects a 3x3 matrix")
    d0, d1, d2 = dists
    n0, n1, n2 = d0.n, d1.n, d2.n
    sizes = {}
    out = []
    for i in range(n0):
        for j in range(n1):
            for k in range(n2):
                di = t_mat[0, 0] * i + t_mat[0, 1] * j + t_mat[0, 2] * k
                dj = t_mat[1, 0] * i + t_mat[1, 1] * j + t_mat[1, 2] * k
                dk = t_mat[2, 0] * i + t_mat[2, 1] * j + t_mat[2, 2] * k
                if wrap:
                    di, dj, dk = di % n0, dj % n1, dk % n2
                elif not (0 <= di < n0 and 0 <= dj < n1 and 0 <= dk < n2):
                    continue
                src = (d0.phys(i), d1.phys(j), d2.phys(k))
                dst = (d0.phys(di), d1.phys(dj), d2.phys(dk))
                if merge:
                    key = (src, dst)
                    sizes[key] = sizes.get(key, 0) + size
                else:
                    out.append(Message(src=src, dst=dst, size=size))
    if merge:
        return [
            Message(src=s, dst=d, size=sz)
            for (s, d), sz in sorted(sizes.items())
        ]
    return out
