"""Mesh topology and dimension-order routing, any mesh rank.

The Intel Paragon (Table 2, Figure 8) is a 2-D mesh with wormhole
routing, the Cray T3D a 3-D one; §5.1 states the elementary-matrix
machinery for any dimension and names m = 2 and m = 3 as the cases of
practical interest.  What matters for the paper's experiments is that
simultaneous messages sharing a link serialize.  We model the mesh with
explicit directed links — including *injection* and *ejection* links
between each node and the network, so several messages leaving (or
entering) one node also serialize, which is exactly the effect that
makes a non-decomposed affine communication slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, List, Sequence, Tuple

Node = Tuple[int, ...]
#: A directed link: ("inj", node), ("eje", node) or ("net", a, b).
Link = Tuple


@dataclass(frozen=True, init=False)
class Mesh:
    """A ``d_0 x d_1 x ... x d_{m-1}`` mesh of physical processors:
    ``Mesh(p, q)`` is a Paragon-style 2-D mesh, ``Mesh(p, q, r)`` a
    T3D-style cube."""

    dims: Tuple[int, ...]

    def __init__(self, *sides: int):
        dims = tuple(int(s) for s in sides)
        if not dims or min(dims) <= 0:
            raise ValueError("mesh dimensions must be positive")
        object.__setattr__(self, "dims", dims)

    @property
    def size(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def nodes(self) -> Iterator[Node]:
        """All nodes, row-major."""
        return product(*(range(d) for d in self.dims))

    def contains(self, n: Node) -> bool:
        if len(n) != len(self.dims):
            return False
        for c, d in zip(n, self.dims):
            if not 0 <= c < d:
                return False
        return True

    def route(self, src: Node, dst: Node) -> List[Link]:
        """Links of the dimension-order route from ``src`` to ``dst``
        (last axis first — XY order on a 2-D mesh, XYZ-style on a
        cube), including the injection and ejection links.

        A local message (``src == dst``) uses no links at all — it is a
        memory copy.
        """
        if not (self.contains(src) and self.contains(dst)):
            raise ValueError("endpoint outside the mesh")
        if src == dst:
            return []
        links: List[Link] = [("inj", src)]
        cur = tuple(src)
        for axis in reversed(range(len(self.dims))):
            step = 1 if dst[axis] > cur[axis] else -1
            head, tail = cur[:axis], cur[axis + 1:]
            for c in range(cur[axis], dst[axis], step):
                nxt = head + (c + step,) + tail
                links.append(("net", cur, nxt))
                cur = nxt
        links.append(("eje", dst))
        return links

    def hops(self, src: Node, dst: Node) -> int:
        """Manhattan distance."""
        return sum(abs(a - b) for a, b in zip(src, dst))

    @staticmethod
    def route_hops(route: Sequence[Link]) -> int:
        """Network hops of a route produced by :meth:`route`.

        Every remote route is injection + one ``net`` link per hop +
        ejection, so this is ``len(route) - 2`` and always agrees with
        :meth:`hops`; a local route (empty) has zero hops.  The
        simulators rely on this invariant (it is asserted in the tests)
        instead of clamping route lengths defensively.
        """
        return 0 if not route else len(route) - 2


@dataclass(frozen=True)
class Message:
    """One point-to-point message between physical processors
    (endpoints are coordinate tuples of the mesh rank)."""

    src: Node
    dst: Node
    size: int = 1

    @property
    def is_local(self) -> bool:
        return self.src == self.dst
