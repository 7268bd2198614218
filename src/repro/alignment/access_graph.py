"""The access graph of Section 2.2.2.

Vertices are array variables and statements.  For every full-rank
access ``x[F I + c]`` in statement ``S`` whose rank is at least the
target dimension ``m``:

* ``q_x <= d`` (``F`` flat or square): edge ``x -> S`` with matrix
  weight ``F`` — given ``M_x`` of rank ``m``, ``M_S = M_x F`` has rank
  ``m`` (Lemma 1);
* ``q_x >= d`` (``F`` narrow or square): edge ``S -> x`` with matrix
  weight ``G`` where ``G F = Id_d`` — given ``M_S``, ``M_x = M_S G``
  solves ``M_x F = M_S`` (Lemma 3).  Any such ``G`` works (remark in
  Section 2.2.2); we prefer a small *integer* one so allocation matrices
  stay integral, and fall back to omitting the edge if none exists.

Square non-singular ``F`` gives the paper's double-arrow edge — here two
directed edges sharing the same access.  The integer weight of every
edge is the **rank of the access matrix**, the paper's estimate of the
communication volume (dimension of the accessed data set), so Edmonds'
branching zeroes out the largest traffic first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..ir import AffineAccess, LoopNest
from ..linalg import (
    IntMat,
    best_left_inverse,
    is_unimodular,
    rank,
    unimodular_inverse,
)
from .digraph import Digraph, Edge

#: Vertex-name prefixes keep array and statement namespaces disjoint.
VAR_PREFIX = "var:"
STMT_PREFIX = "stmt:"


def var_node(array: str) -> str:
    return VAR_PREFIX + array


def stmt_node(stmt: str) -> str:
    return STMT_PREFIX + stmt


@dataclass(frozen=True)
class AccessRef:
    """Identifies one access: which statement, which access object."""

    stmt: str
    access: AffineAccess

    @property
    def label(self) -> str:
        return self.access.label or f"{self.stmt}:{self.access.array}"


@dataclass(frozen=True)
class EdgeInfo:
    """Payload attached to each access-graph edge."""

    ref: AccessRef
    matrix: IntMat  # the weight: F (x->S) or G with G F = Id (S->x)
    direction: str  # "var_to_stmt" or "stmt_to_var"


@dataclass
class AccessGraph:
    """The weighted access graph ``G(V, E, m)`` plus bookkeeping about
    accesses that could not become edges."""

    m: int
    graph: Digraph
    #: accesses excluded because rank(F) < m or F not full rank
    excluded: List[AccessRef] = field(default_factory=list)
    #: narrow accesses skipped because no integer left inverse exists
    no_integer_inverse: List[AccessRef] = field(default_factory=list)

    def edges_of_access(self, label: str) -> List[Edge]:
        return [
            e
            for e in self.graph.edges()
            if e.payload is not None and e.payload.ref.label == label
        ]

    def edge_labels(self) -> List[str]:
        return sorted({e.payload.ref.label for e in self.graph.edges()})

    def describe(self) -> str:
        lines = [f"access graph (m={self.m}):"]
        for e in sorted(self.graph.edges(), key=lambda e: e.id):
            info: EdgeInfo = e.payload
            lines.append(
                f"  {e.src} -> {e.dst}  [{info.ref.label}]  weight={e.weight}"
            )
        if self.excluded:
            lines.append(
                "  excluded (rank-deficient or < m): "
                + ", ".join(r.label for r in self.excluded)
            )
        return "\n".join(lines)


def build_access_graph(nest: LoopNest, m: int) -> AccessGraph:
    """Construct ``G(V, E, m)`` for a loop nest.

    Only accesses with *full-rank* matrix of rank ``>= m`` become edges
    (the heuristic concentrates on the core of the computation, exactly
    as Section 2.2.3 prescribes); others are recorded in ``excluded``
    and handled later as residual communications.
    """
    g = Digraph()
    out = AccessGraph(m=m, graph=g)
    for stmt in nest.statements:
        g.add_node(stmt_node(stmt.name))
    for arr in nest.arrays.values():
        g.add_node(var_node(arr.name))

    for stmt, acc in nest.all_accesses():
        ref = AccessRef(stmt=stmt.name, access=acc)
        f = acc.F
        qx, d = f.shape
        r = rank(f)
        if r != min(qx, d) or r < m:
            out.excluded.append(ref)
            continue
        x = var_node(acc.array)
        s = stmt_node(stmt.name)
        int_weight = r
        if qx <= d:
            # flat (or square): x -> S with weight F
            g.add_edge(
                x, s, int_weight,
                payload=EdgeInfo(ref=ref, matrix=f, direction="var_to_stmt"),
            )
        if qx >= d:
            # narrow (or square): S -> x with weight G, G F = Id_d
            ginv = _left_inverse_weight(f)
            if ginv is None:
                if qx > d:
                    out.no_integer_inverse.append(ref)
                continue
            g.add_edge(
                s, x, int_weight,
                payload=EdgeInfo(ref=ref, matrix=ginv, direction="stmt_to_var"),
            )
    return out


def _left_inverse_weight(f: IntMat) -> Optional[IntMat]:
    """An integer ``G`` with ``G F = Id`` — exact inverse for unimodular
    square ``F``, a reduced integer left inverse for narrow ``F``."""
    qx, d = f.shape
    if qx == d:
        if is_unimodular(f):
            return unimodular_inverse(f)
        return None
    return best_left_inverse(f)
