"""Feautrier-style greedy placement baseline.

Feautrier's heuristic (Section 7.1) zeroes out edges of the
communication graph greedily in decreasing order of estimated
communication volume, without the global optimality of a maximum
branching.  We reproduce that control structure on our access graph:

* sort edges by volume weight descending;
* accept an edge when its destination vertex has no incoming accepted
  edge yet and accepting keeps the selection a forest;
* propagate allocations exactly as the branching solver does (the
  paper's step 1c refinements are deliberately *not* applied — this is
  the baseline the heuristic improves on).

The resulting :class:`~repro.alignment.allocation.Alignment` plugs into
the same step-2 machinery, making the comparison with Edmonds-based
step 1 an apples-to-apples ablation (benchmark A1 / the Section 7
discussion).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..alignment.access_graph import (
    AccessGraph,
    AccessRef,
    build_access_graph,
    stmt_node,
    var_node,
)
from ..alignment.allocation import (
    Alignment,
    ResidualComm,
    _default_root_matrix,
    _node_dim,
)
from ..alignment.digraph import branching_roots, connected_components
from ..ir import LoopNest
from ..linalg import IntMat


def greedy_edge_selection(graph) -> Set[int]:
    """Greedy branching: heaviest edges first, keeping in-degree <= 1
    and acyclicity (union-find on the underlying undirected forest)."""
    parent: Dict[str, str] = {v: v for v in graph.nodes}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    chosen: Set[int] = set()
    has_incoming: Set[str] = set()
    for e in sorted(graph.edges(), key=lambda e: (-e.weight, e.id)):
        if e.weight <= 0 or e.src == e.dst:
            continue
        if e.dst in has_incoming:
            continue
        ra, rb = find(e.src), find(e.dst)
        if ra == rb:
            continue  # would close a cycle in the forest
        chosen.add(e.id)
        has_incoming.add(e.dst)
        parent[ra] = rb
    return chosen


def feautrier_align(
    nest: LoopNest,
    m: int,
    root_allocations: Optional[Dict[str, IntMat]] = None,
    access_graph: Optional[AccessGraph] = None,
) -> Alignment:
    """Step-1 alignment using greedy selection instead of Edmonds.

    ``access_graph`` is ``build_access_graph(nest, m)`` when the caller
    already built it (the heuristic's alignment of the same compile
    carries it); neither alignment mutates the graph, so they share it.
    """
    if access_graph is None:
        ag = build_access_graph(nest, m)
    elif access_graph.m != m:
        raise ValueError(f"access graph built for m={access_graph.m}, not m={m}")
    else:
        ag = access_graph
    g = ag.graph
    chosen = greedy_edge_selection(g)

    components = connected_components(g, chosen)
    roots = branching_roots(g, chosen)
    allocations: Dict[str, IntMat] = {}
    component_root_of: Dict[str, str] = {}

    children: Dict[str, List] = {}
    for eid in chosen:
        e = g.edge(eid)
        children.setdefault(e.src, []).append(e)

    for comp in components:
        comp_roots = sorted(v for v in comp if v in roots)
        root = comp_roots[0]
        dim = _node_dim(nest, root)
        m_root = (root_allocations or {}).get(root)
        if m_root is None:
            m_root = _default_root_matrix(m, dim)
        stack = [(root, IntMat.identity(dim))]
        while stack:
            u, path = stack.pop()
            allocations[u] = m_root @ path
            component_root_of[u] = root
            for e in children.get(u, []):
                stack.append((e.dst, path @ e.payload.matrix))

    local_labels: Set[str] = set()
    residuals: List[ResidualComm] = []
    for stmt, acc in nest.all_accesses():
        ref = AccessRef(stmt=stmt.name, access=acc)
        ms = allocations[stmt_node(stmt.name)]
        mx = allocations[var_node(acc.array)]
        if mx @ acc.F == ms:
            local_labels.add(ref.label)
        else:
            residuals.append(
                ResidualComm(
                    ref=ref,
                    M_S=ms,
                    M_x=mx,
                    component_root=component_root_of[stmt_node(stmt.name)],
                )
            )

    return Alignment(
        nest=nest,
        m=m,
        access_graph=ag,
        branching=chosen,
        allocations=allocations,
        offsets={k: IntMat.zeros(m, 1) for k in allocations},
        local_labels=local_labels,
        residuals=residuals,
        component_root_of=component_root_of,
    )
