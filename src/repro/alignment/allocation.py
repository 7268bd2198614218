"""Allocation-matrix propagation over a branching (heuristic step 1).

Once the maximum branching is chosen, every connected component has a
unique root vertex; choosing a full-rank ``m x dim(root)`` allocation
matrix for the root determines every other allocation by propagating
along the branching edges (``M_v = M_u W_e``).  Step 1(c) then tries to
re-add the remaining edges:

* (i) an edge whose path-matrix difference ``P_u W_e - P_v`` is zero is
  local for *every* root allocation (the paper's identity cycles and
  equal-weight parallel paths);
* (ii) a non-zero difference ``D`` of deficient rank can still be
  zeroed by choosing the root allocation inside the left kernel of
  ``D`` — feasible iff the kernels of all chosen constraints intersect
  in dimension >= m.

The root allocation is otherwise free, which is precisely the
"determined up to left multiplication by a unimodular matrix" freedom
that Sections 4 and 5 spend on macro-communications and decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..ir import AccessKind, LoopNest
from ..linalg import IntMat, left_kernel_basis
from ..obs import span
from .access_graph import (
    AccessGraph,
    AccessRef,
    EdgeInfo,
    build_access_graph,
    stmt_node,
    var_node,
)
from .digraph import Digraph, branching_roots, connected_components, maximum_branching


@dataclass
class ResidualComm:
    """A non-local communication left after step 1."""

    ref: AccessRef
    #: allocation of the statement (receiver for reads, sender for writes)
    M_S: IntMat
    #: allocation of the array
    M_x: IntMat
    #: name of the connected component root this comm belongs to (the
    #: unimodular rotation of Section 4/5 applies per component)
    component_root: str

    @property
    def is_read(self) -> bool:
        return self.ref.access.kind is AccessKind.READ


@dataclass
class Alignment:
    """Result of heuristic step 1 for one loop nest."""

    nest: LoopNest
    m: int
    access_graph: AccessGraph
    branching: Set[int]
    #: allocation per graph vertex name ("var:a" / "stmt:S1")
    allocations: Dict[str, IntMat]
    #: constant allocation offsets (the alpha vectors), m x 1 per vertex;
    #: chosen along the branching so the *local term* of every tree
    #: access vanishes too (the paper absorbs constants into the
    #: affine allocation functions)
    offsets: Dict[str, IntMat]
    #: labels of accesses whose communication is local
    local_labels: Set[str]
    #: all remaining non-local communications (graph residuals + the
    #: accesses excluded from the graph)
    residuals: List[ResidualComm]
    #: vertex -> its component root (for applying per-component rotations)
    component_root_of: Dict[str, str]
    #: edges re-added in step 1c (by original edge id)
    readded_edges: Set[int] = field(default_factory=set)

    def allocation_of_array(self, name: str) -> IntMat:
        return self.allocations[var_node(name)]

    def allocation_of_stmt(self, name: str) -> IntMat:
        return self.allocations[stmt_node(name)]

    def offset_of_array(self, name: str) -> IntMat:
        return self.offsets[var_node(name)]

    def offset_of_stmt(self, name: str) -> IntMat:
        return self.offsets[stmt_node(name)]

    @property
    def mutation_count(self) -> int:
        """Bumped by :meth:`rotate_component`; downstream caches keyed
        on allocations (the runtime's virtual-batch memo) include it so
        a rotation invalidates them."""
        return self.__dict__.get("_mutation_count", 0)

    def rotate_component(self, root: str, v: IntMat) -> None:
        """Left-multiply every allocation of the component rooted at
        ``root`` by the unimodular matrix ``v`` (Section 3 remark)."""
        self.__dict__["_mutation_count"] = self.mutation_count + 1
        for node, r in self.component_root_of.items():
            if r == root:
                self.allocations[node] = v @ self.allocations[node]
                self.offsets[node] = v @ self.offsets[node]
        for res in self.residuals:
            if res.component_root == root:
                res.M_S = self.allocations[stmt_node(res.ref.stmt)]
                res.M_x = self.allocations[var_node(res.ref.access.array)]

    def count_local(self) -> int:
        return len(self.local_labels)

    def describe(self) -> str:
        lines = [f"alignment onto a {self.m}-D virtual grid:"]
        for node in sorted(self.allocations):
            lines.append(f"  {node}: {self.allocations[node].tolist()}")
        lines.append(f"  local: {sorted(self.local_labels)}")
        lines.append(
            "  residual: " + ", ".join(r.ref.label for r in self.residuals)
        )
        return "\n".join(lines)


def _default_root_matrix(m: int, dim: int) -> IntMat:
    """``[Id_m | 0]`` (or a truncated identity when dim < m)."""
    return IntMat([[1 if i == j else 0 for j in range(dim)] for i in range(m)])


def _node_dim(nest: LoopNest, node: str) -> int:
    if node.startswith("var:"):
        return nest.arrays[node[4:]].dim
    return nest.statement(node[5:]).depth


def _score_root_candidate(
    nest: LoopNest,
    schedules,
    cand: IntMat,
    paths: Dict[str, IntMat],
) -> int:
    """Parallelism score of a root allocation: the ranks of the induced
    statement allocations restricted to the schedule kernels — higher
    means more processors active per time step."""
    from ..linalg import integer_kernel_basis, rank

    score = 0
    for node, path in paths.items():
        if not node.startswith("stmt:"):
            continue
        theta = schedules.schedule_of(node[5:]).theta
        kern = integer_kernel_basis(theta)
        if not kern:
            continue
        cols = [v.column_tuple(0) for v in kern]
        k_mat = IntMat(list(zip(*cols)))
        ms = cand @ path
        score += rank(ms @ k_mat)
    return score


from functools import lru_cache


@lru_cache(maxsize=None)
def _candidate_roots(m: int, dim: int) -> Tuple[IntMat, ...]:
    """Coordinate-projection candidates for a free root allocation.

    Memoized on ``(m, dim)``: the ``C(dim, m)`` projection matrices are
    the same for every component of every nest, and ``IntMat`` is
    immutable, so the shared instances are safe to hand out (campaigns
    call this thousands of times with a handful of distinct shapes).
    """
    from itertools import combinations

    if dim <= m:
        return (_default_root_matrix(m, dim),)
    return tuple(
        IntMat([[1 if j == r else 0 for j in range(dim)] for r in rows])
        for rows in combinations(range(dim), m)
    )


def align(
    nest: LoopNest,
    m: int,
    root_allocations: Optional[Dict[str, IntMat]] = None,
    use_rank_weights: bool = True,
    schedules=None,
) -> Alignment:
    """Run heuristic step 1 (Section 6, step 1) on a loop nest.

    Parameters
    ----------
    nest:
        The affine loop nest.
    m:
        Dimension of the target virtual processor grid.
    root_allocations:
        Optional preferred allocation matrix per component root vertex
        name (e.g. ``{"var:a": IntMat.identity(2)}``); ignored for roots
        constrained by step 1(c)(ii).
    use_rank_weights:
        When False, every edge gets integer weight 1 instead of the rank
        of its access matrix (the A1 ablation).
    """
    with span("align.graph"):
        ag = build_access_graph(nest, m)
    g = ag.graph
    with span("align.branching"):
        if not use_rank_weights:
            flat = Digraph()
            for n in g.nodes:
                flat.add_node(n)
            id_map = {}
            for e in g.edges():
                ne = flat.add_edge(e.src, e.dst, 1, payload=e.payload)
                id_map[ne.id] = e.id
            chosen_flat = maximum_branching(flat)
            chosen = {id_map[i] for i in chosen_flat}
        else:
            chosen = maximum_branching(g)

    components = connected_components(g, chosen)
    roots = branching_roots(g, chosen)

    allocations: Dict[str, IntMat] = {}
    offsets: Dict[str, IntMat] = {}
    component_root_of: Dict[str, str] = {}
    local_labels: Set[str] = set()
    readded: Set[int] = set()

    branching_children: Dict[str, List] = {}
    for eid in chosen:
        e = g.edge(eid)
        branching_children.setdefault(e.src, []).append(e)

    for comp in components:
        comp_roots = [v for v in comp if v in roots]
        # a branching component has exactly one root; isolated vertices
        # are their own (rootless) components
        root = sorted(comp_roots)[0]
        # path matrices from the root
        paths: Dict[str, IntMat] = {root: IntMat.identity(_node_dim(nest, root))}
        order = [root]
        queue = [root]
        while queue:
            u = queue.pop()
            for e in branching_children.get(u, []):
                info: EdgeInfo = e.payload
                paths[e.dst] = paths[u] @ info.matrix
                order.append(e.dst)
                queue.append(e.dst)

        # --- step 1c: try to re-add the non-branching edges -----------
        candidates: List[Tuple[int, IntMat]] = []  # (edge id, D)
        for e in g.edges():
            if e.id in chosen:
                continue
            if e.src not in paths or e.dst not in paths:
                continue  # other component (or unreachable)
            info = e.payload
            d_mat = paths[e.src] @ info.matrix - paths[e.dst]
            if d_mat.is_zero():
                # (i) identity cycle / equal parallel path: always local
                readded.add(e.id)
            else:
                candidates.append((e.id, d_mat))

        # (ii) deficient-rank differences: greedily accumulate
        # constraints while a rank-m root allocation still exists.
        constraints: List[IntMat] = []
        root_dim = _node_dim(nest, root)

        def kernel_rows(stack: List[IntMat]) -> Optional[IntMat]:
            if not stack:
                return None
            combined = stack[0]
            for s in stack[1:]:
                combined = combined.hstack(s)
            basis = left_kernel_basis(combined)
            if len(basis) < m:
                return None
            return IntMat([b[0] for b in basis[:m]])

        chosen_constraints: List[int] = []
        sorted_candidates = sorted(
            candidates, key=lambda t: -g.edge(t[0]).weight
        )
        # Rank-m root allocations in the joint left kernel exist iff
        # rank(stack) <= root_dim - m (the rational left kernel has
        # dimension root_dim - rank), so candidates are screened by an
        # incremental (memoized) rank computation — the full IntMat
        # stack + kernel basis is only built once, for the survivors.
        from ..linalg import rank as _rank

        max_rank = root_dim - m
        combined: Optional[IntMat] = None
        for eid, d_mat in sorted_candidates:
            if max_rank <= 0:
                break  # non-zero differences can never be absorbed
            trial = d_mat if combined is None else combined.hstack(d_mat)
            if _rank(trial) > max_rank:
                continue  # rejected by rank, no kernel basis needed
            constraints.append(d_mat)
            chosen_constraints.append(eid)
            combined = trial

        if constraints:
            m_root = kernel_rows(constraints)
            assert m_root is not None
            readded.update(chosen_constraints)
        else:
            m_root = None
        if m_root is None:
            preferred = (root_allocations or {}).get(root)
            if preferred is not None:
                if preferred.shape != (m, root_dim):
                    raise ValueError(
                        f"root allocation for {root} must be {m}x{root_dim}"
                    )
                m_root = preferred
            elif schedules is not None:
                # pick the coordinate projection that keeps the most
                # processors active per time step (avoid projecting the
                # grid onto the schedule's time dimensions)
                best = None
                best_score = -1
                for cand in _candidate_roots(m, root_dim):
                    s = _score_root_candidate(nest, schedules, cand, paths)
                    if s > best_score:
                        best, best_score = cand, s
                m_root = best if best is not None else _default_root_matrix(m, root_dim)
            else:
                m_root = _default_root_matrix(m, root_dim)

        for v in order:
            allocations[v] = m_root @ paths[v]
            component_root_of[v] = root
        for v in comp:
            if v not in allocations:
                # vertex in the component without a branching path (can
                # happen only for isolated vertices grouped by edges not
                # in `chosen`; give it a default allocation)
                allocations[v] = _default_root_matrix(m, _node_dim(nest, v))
                component_root_of[v] = root
        # offsets: absorb the constant (local) terms of tree accesses
        offsets[root] = IntMat.zeros(m, 1)
        queue2 = [root]
        while queue2:
            u = queue2.pop()
            for e in branching_children.get(u, []):
                info = e.payload
                c = info.ref.access.c
                if info.direction == "var_to_stmt":
                    mx = allocations[e.src]
                    offsets[e.dst] = mx @ c + offsets[u]
                else:  # stmt -> var
                    mx = allocations[e.dst]
                    offsets[e.dst] = offsets[u] - mx @ c
                queue2.append(e.dst)
        for v in comp:
            offsets.setdefault(v, IntMat.zeros(m, 1))

    # mark every access local / residual
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
        offsets=offsets,
        local_labels=local_labels,
        residuals=residuals,
        component_root_of=component_root_of,
        readded_edges=readded,
    )
