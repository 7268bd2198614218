"""Communication-pattern generators.

Build concrete :class:`~repro.machine.topology.Message` sets for the
patterns the paper measures: translations, general affine
redistributions, elementary ``L``/``U`` phases, and software
broadcast / reduction trees.  A pattern is produced against an m-D
virtual grid folded onto the physical mesh by one 1-D distribution per
axis (a :class:`~repro.distribution.Distribution2D` is the 2-D pair).
"""

from __future__ import annotations

from itertools import product
from operator import getitem, mod, mul
from typing import Dict, List, Optional, Sequence, Tuple

from ..linalg import IntMat
from .topology import Mesh, Message


def coalesce(messages: Sequence[Message]) -> List[Message]:
    """Merge all element messages sharing (src, dst) into one message
    whose size is the element total — what a real message-passing
    runtime does before touching the network.  Local pairs are kept
    (size-aggregated) so statistics remain exact."""
    sizes: Dict[Tuple, int] = {}
    for m in messages:
        key = (m.src, m.dst)
        sizes[key] = sizes.get(key, 0) + m.size
    return [Message(src=s, dst=d, size=sz) for (s, d), sz in sorted(sizes.items())]


def translation_pattern(
    dists,
    offset: Sequence[int],
    size: int = 1,
    wrap: bool = True,
    merge: bool = True,
) -> List[Message]:
    """Every virtual processor sends to ``v + offset``."""
    return affine_pattern(
        dists, IntMat.identity(len(offset)), offset, size, wrap, merge
    )


def affine_pattern(
    dists,
    t_mat: IntMat,
    offset: Optional[Sequence[int]] = None,
    size: int = 1,
    wrap: bool = True,
    merge: bool = True,
) -> List[Message]:
    """Every virtual processor ``v`` sends to ``T v + offset`` (taken
    modulo the virtual grid when ``wrap``).  This is the pattern of a
    residual general communication with data-flow matrix ``T``.

    ``dists`` holds one 1-D distribution per mesh axis; ``T`` must be
    square of that rank.  Virtual processors are visited row-major.
    """
    axes = tuple(dists)
    rank = len(axes)
    if t_mat.shape != (rank, rank):
        raise ValueError(
            f"affine_pattern expects a {rank}x{rank} data-flow matrix "
            f"for {rank} distributions, got {t_mat.shape}"
        )
    rows = t_mat.rows()
    offset = (0,) * rank if offset is None else tuple(offset)
    extents = [d.n for d in axes]
    # per-axis virtual -> physical tables; product() of them walks the
    # sources in the same row-major order as the virtual processors
    phys = [[d.phys(x) for x in range(n)] for d, n in zip(axes, extents)]
    out: List[Message] = []
    for v, src in zip(product(*map(range, extents)), product(*phys)):
        w = [sum(map(mul, row, v)) + o for row, o in zip(rows, offset)]
        if wrap:
            w = map(mod, w, extents)
        elif not all(0 <= x < n for x, n in zip(w, extents)):
            continue
        dst = tuple(map(getitem, phys, w))
        out.append(Message(src=src, dst=dst, size=size))
    return coalesce(out) if merge else out


def decomposed_phases(
    dists,
    factors: Sequence[IntMat],
    size: int = 1,
    wrap: bool = True,
) -> List[List[Message]]:
    """Phases implementing ``T = F_1 @ F_2 @ ... @ F_k``: data moves
    through the factors right-to-left (``p_1 = F_k p_0``, then
    ``p_2 = F_{k-1} p_1``...), each phase an affine pattern of its own
    factor — horizontal/vertical when the factors are elementary."""
    return [
        affine_pattern(dists, f, size=size, wrap=wrap)
        for f in reversed(list(factors))
    ]


def broadcast_tree_phases(
    mesh: Mesh, root, size: int = 1
) -> List[List[Message]]:
    """Software binomial broadcast over all mesh nodes: log2(P) phases
    of doubling coverage (what a Paragon pays without hardware
    support)."""
    nodes = list(mesh.nodes())
    order = sorted(nodes, key=lambda n: (n != root, n))
    have = [order[0]]
    rest = order[1:]
    phases: List[List[Message]] = []
    while rest:
        phase: List[Message] = []
        senders = list(have)
        for s in senders:
            if not rest:
                break
            nxt = rest.pop(0)
            phase.append(Message(src=s, dst=nxt, size=size))
            have.append(nxt)
        phases.append(phase)
    return phases


def partial_broadcast_row_phases(
    mesh: Mesh, axis: int, size: int = 1
) -> List[List[Message]]:
    """Axis-parallel partial broadcast: each node forwards along one
    mesh axis (a pipeline of neighbour hops — the cheap pattern the
    paper's rotation enables).  One phase per hop along the axis."""
    return [
        [
            Message(
                src=n, dst=n[:axis] + (step + 1,) + n[axis + 1:], size=size
            )
            for n in mesh.nodes()
            if n[axis] == step
        ]
        for step in range(mesh.dims[axis] - 1)
    ]


def reduction_tree_phases(
    mesh: Mesh, root, size: int = 1
) -> List[List[Message]]:
    """Software binomial reduction: the reverse of the broadcast tree."""
    return [
        [Message(src=m.dst, dst=m.src, size=m.size) for m in phase]
        for phase in reversed(broadcast_tree_phases(mesh, root, size))
    ]


def message_counts(messages: Sequence[Message]) -> Dict[str, int]:
    """Summary statistics used by tests and reports."""
    remote = [m for m in messages if not m.is_local]
    return {
        "total": len(messages),
        "remote": len(remote),
        "local": len(messages) - len(remote),
        "volume": sum(m.size for m in remote),
    }
