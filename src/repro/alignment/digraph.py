"""A small directed multigraph with weighted edges.

The access graph needs parallel edges (two reads of the same array in
the same statement give two ``x -> S`` edges), integer weights (the
Edmonds branching) and arbitrary payloads (the matrix weight and the
originating access).  ``networkx`` is deliberately not used here — the
branching algorithm is part of what the paper relies on, so we
implement the substrate from scratch (tests cross-check against
networkx as an oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set


@dataclass(frozen=True)
class Edge:
    """A directed edge ``src -> dst`` with an integer weight."""

    id: int
    src: str
    dst: str
    weight: int
    payload: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Edge#{self.id}({self.src}->{self.dst}, w={self.weight})"


class Digraph:
    """Directed multigraph keyed by string vertex names."""

    def __init__(self) -> None:
        self._nodes: Set[str] = set()
        self._edges: Dict[int, Edge] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    def add_node(self, name: str) -> None:
        self._nodes.add(name)

    def add_edge(self, src: str, dst: str, weight: int, payload: Any = None) -> Edge:
        self.add_node(src)
        self.add_node(dst)
        e = Edge(id=self._next_id, src=src, dst=dst, weight=weight, payload=payload)
        self._edges[e.id] = e
        self._next_id += 1
        return e

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Set[str]:
        return set(self._nodes)

    def edges(self) -> List[Edge]:
        return list(self._edges.values())

    def edge(self, eid: int) -> Edge:
        return self._edges[eid]

    def out_edges(self, node: str) -> List[Edge]:
        return [e for e in self._edges.values() if e.src == node]

    def in_edges(self, node: str) -> List[Edge]:
        return [e for e in self._edges.values() if e.dst == node]

    def __len__(self) -> int:
        return len(self._edges)

    def total_weight(self, edge_ids: Iterable[int]) -> int:
        return sum(self._edges[i].weight for i in edge_ids)


# ---------------------------------------------------------------------------
# Edmonds' maximum branching
# ---------------------------------------------------------------------------

@dataclass
class _Problem:
    """One level of the contraction recursion."""

    nodes: Set[str]
    edges: List[Edge]  # weights already adjusted at this level
    # edge.id values are level-local; map back to parent-level edge ids
    parent_edge: Dict[int, int] = field(default_factory=dict)


def _best_incoming(edges: List[Edge]) -> Dict[str, Edge]:
    best: Dict[str, Edge] = {}
    for e in edges:
        if e.src == e.dst or e.weight <= 0:
            continue
        cur = best.get(e.dst)
        if cur is None or e.weight > cur.weight or (
            e.weight == cur.weight and e.id < cur.id
        ):
            best[e.dst] = e
    return best


def _find_cycle(best: Dict[str, Edge]) -> Optional[List[Edge]]:
    """A cycle in the functional graph of chosen incoming edges."""
    color: Dict[str, int] = {}
    for start in best:
        if color.get(start):
            continue
        path: List[str] = []
        node = start
        while node in best and color.get(node) is None:
            color[node] = 1  # on current path
            path.append(node)
            node = best[node].src
        if node in best and color.get(node) == 1:
            # found a cycle: unwind path from `node`
            idx = path.index(node)
            cyc_nodes = path[idx:]
            return [best[v] for v in cyc_nodes]
        for v in path:
            color[v] = 2
    return None


def maximum_branching(graph: Digraph) -> Set[int]:
    """Edmonds' algorithm for a maximum-weight branching.

    A branching is an edge set where every vertex has in-degree at most
    one and no cycle exists; maximality is over total weight (only
    positive-weight edges are ever useful).  Returns the set of selected
    edge ids of ``graph``.
    """
    root_problem = _Problem(
        nodes=graph.nodes,
        edges=list(graph.edges()),
        parent_edge={e.id: e.id for e in graph.edges()},
    )
    chosen_local = _solve(root_problem, next_id=[max((e.id for e in graph.edges()), default=0) + 1])
    return set(chosen_local)


def _solve(problem: _Problem, next_id: List[int]) -> Set[int]:
    """Recursive contraction.  Returns *original-level* edge ids."""
    best = _best_incoming(problem.edges)
    cycle = _find_cycle(best)
    if cycle is None:
        return {problem.parent_edge[e.id] for e in best.values()}

    cyc_nodes = {e.dst for e in cycle}
    cyc_weight_of: Dict[str, int] = {e.dst: e.weight for e in cycle}
    min_cycle_weight = min(e.weight for e in cycle)
    supernode = f"__contracted_{next_id[0]}"
    next_id[0] += 1

    new_edges: List[Edge] = []
    new_parent: Dict[int, int] = {}
    # map from contracted-level edge id to the cycle entry node it targets
    entry_point: Dict[int, str] = {}
    for e in problem.edges:
        if e.src in cyc_nodes and e.dst in cyc_nodes:
            continue
        if e.dst in cyc_nodes:
            w = e.weight - cyc_weight_of[e.dst] + min_cycle_weight
            ne = Edge(id=next_id[0], src=e.src, dst=supernode, weight=w, payload=None)
            next_id[0] += 1
            new_edges.append(ne)
            new_parent[ne.id] = problem.parent_edge[e.id]
            entry_point[ne.id] = e.dst
        elif e.src in cyc_nodes:
            ne = Edge(id=next_id[0], src=supernode, dst=e.dst, weight=e.weight, payload=None)
            next_id[0] += 1
            new_edges.append(ne)
            new_parent[ne.id] = problem.parent_edge[e.id]
        else:
            ne = Edge(id=next_id[0], src=e.src, dst=e.dst, weight=e.weight, payload=None)
            next_id[0] += 1
            new_edges.append(ne)
            new_parent[ne.id] = problem.parent_edge[e.id]

    sub = _Problem(
        nodes=(problem.nodes - cyc_nodes) | {supernode},
        edges=new_edges,
        parent_edge=new_parent,
    )
    chosen_original = _solve(sub, next_id)

    # Expansion: if the sub-solution chose an edge entering the
    # supernode, unroll the cycle dropping the cycle edge into that
    # entry point; otherwise drop the minimum-weight cycle edge.
    # `parent_edge` maps are injective, so the chosen entering edge is
    # recoverable from original-level ids.
    entering_by_original = {
        new_parent[eid]: entry for eid, entry in entry_point.items()
    }
    chosen_entering = [
        oid for oid in chosen_original if oid in entering_by_original
    ]
    if chosen_entering:
        entry = entering_by_original[chosen_entering[0]]
        keep = {problem.parent_edge[e.id] for e in cycle if e.dst != entry}
    else:
        drop = min(cycle, key=lambda e: (e.weight, e.id))
        keep = {problem.parent_edge[e.id] for e in cycle if e.id != drop.id}
    return chosen_original | keep


def branching_roots(graph: Digraph, chosen: Set[int]) -> Set[str]:
    """Vertices with no incoming branching edge (the forest roots)."""
    with_in = {graph.edge(eid).dst for eid in chosen}
    return graph.nodes - with_in


def connected_components(graph: Digraph, chosen: Set[int]) -> List[Set[str]]:
    """Weakly-connected components of the branching forest (isolated
    vertices are singleton components)."""
    parent: Dict[str, str] = {v: v for v in graph.nodes}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for eid in chosen:
        e = graph.edge(eid)
        union(e.src, e.dst)
    groups: Dict[str, Set[str]] = {}
    for v in graph.nodes:
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def is_branching(graph: Digraph, chosen: Set[int]) -> bool:
    """Validity check: in-degree <= 1 and acyclic."""
    indeg: Dict[str, int] = {}
    adj: Dict[str, List[str]] = {}
    for eid in chosen:
        e = graph.edge(eid)
        indeg[e.dst] = indeg.get(e.dst, 0) + 1
        if indeg[e.dst] > 1:
            return False
        adj.setdefault(e.src, []).append(e.dst)
    # cycle check by DFS
    state: Dict[str, int] = {}

    def dfs(v: str) -> bool:
        state[v] = 1
        for w in adj.get(v, []):
            if state.get(w) == 1:
                return False
            if state.get(w) is None and not dfs(w):
                return False
        state[v] = 2
        return True

    return all(state.get(v) is not None or dfs(v) for v in graph.nodes)
