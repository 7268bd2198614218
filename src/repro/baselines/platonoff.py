"""Platonoff's broadcast-first mapping strategy (Section 7).

Platonoff's algorithm *first* locates the broadcasts of the initial
program (non-trivial ``ker(theta) ∩ ker(F)`` for a read access),
*preserves* them by constraining the statement allocation so that the
broadcast direction stays visible and parallel to a grid axis, and only
*then* zeroes out the remaining communications greedily.  The paper's
Section 7.2 shows this order of priorities can be arbitrarily worse
than theirs: on Example 5 the broadcast-preserving mapping pays a
partial broadcast per (i, j) pair per time step, while the
two-step heuristic finds a communication-free mapping.

The implementation mirrors that structure:

1. for every statement, find a broadcast direction ``v`` (a primitive
   vector of ``ker theta ∩ ker F`` for some read);
2. choose ``M_S`` with ``M_S v = e_m`` (axis-parallel broadcast) by
   completing ``v`` to a unimodular basis;
3. greedily allocate arrays to zero out what the constraints allow
   (writes first, then reads), defaulting otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..alignment.access_graph import AccessRef, build_access_graph, stmt_node, var_node
from ..alignment.allocation import Alignment, ResidualComm, _default_root_matrix
from ..alignment.heuristic import MappingResult, optimize_residuals
from ..ir import AccessKind, LoopNest, ScheduledNest
from ..linalg import (
    IntMat,
    kernel_intersection_basis,
    solve_axb,
    unimodular_completion,
    unimodular_inverse,
)


def _broadcast_direction(
    stmt, schedules: ScheduledNest
) -> Optional[IntMat]:
    """A primitive broadcast direction of the statement, if any: a
    vector of ``ker theta ∩ ker F`` for some read access."""
    theta = schedules.schedule_of(stmt.name).theta
    for acc in stmt.accesses:
        if acc.kind is not AccessKind.READ:
            continue
        basis = kernel_intersection_basis([theta, acc.F])
        if basis:
            return basis[0]
    return None


def _axis_preserving_allocation(m: int, v: IntMat) -> IntMat:
    """A full-rank ``m x d`` matrix with ``M v = e_m`` (broadcast kept,
    parallel to the last grid axis)."""
    d = v.nrows
    comp = unimodular_completion(v.T)  # d x d unimodular, first row v^T
    if comp is None:
        # v not primitive (cannot happen for kernel basis vectors, which
        # are reduced); fall back to a default allocation
        return _default_root_matrix(m, d)
    # comp^T has v as first column; W = (comp^T)^{-1} maps v to e_1.
    w = unimodular_inverse(comp.T)
    # select rows so that row m of M is the e_1-detector: M v = e_m
    rows = []
    for r in range(1, m):
        rows.append(list(w[r % d]))
    rows.append(list(w[0]))
    mat = IntMat(rows)
    return mat


def platonoff_mapping(
    nest: LoopNest, m: int, schedules: ScheduledNest
) -> MappingResult:
    """Run Platonoff's strategy and classify the resulting residual
    communications with the shared step-2 analyzers (no rotations — the
    broadcast-preserving constraints pin the allocations)."""
    ag = build_access_graph(nest, m)
    allocations: Dict[str, IntMat] = {}

    # 1-2: statements with broadcasts get broadcast-preserving layouts
    for stmt in nest.statements:
        v = _broadcast_direction(stmt, schedules)
        if v is not None:
            allocations[stmt_node(stmt.name)] = _axis_preserving_allocation(m, v)

    # 3a: greedy zero-out — writes first (owner-computes flavour)
    ordered = sorted(
        nest.all_accesses(),
        key=lambda sa: (sa[1].kind is not AccessKind.WRITE, -sa[1].rank),
    )
    for stmt, acc in ordered:
        s_key = stmt_node(stmt.name)
        x_key = var_node(acc.array)
        if s_key in allocations and x_key not in allocations:
            # M_x F = M_S, solved transposed: F^T M_x^T = M_S^T
            sol = solve_axb(acc.F.T, allocations[s_key].T)
            if sol is not None:
                allocations[x_key] = sol.particular.T
        elif x_key in allocations and s_key not in allocations:
            allocations[s_key] = allocations[x_key] @ acc.F

    # defaults for anything still unallocated
    for stmt in nest.statements:
        allocations.setdefault(
            stmt_node(stmt.name), _default_root_matrix(m, stmt.depth)
        )
    for arr in nest.arrays.values():
        allocations.setdefault(
            var_node(arr.name), _default_root_matrix(m, arr.dim)
        )

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
                    component_root=stmt_node(stmt.name),
                )
            )

    alignment = Alignment(
        nest=nest,
        m=m,
        access_graph=ag,
        branching=set(),
        allocations=allocations,
        offsets={k: IntMat.zeros(m, 1) for k in allocations},
        local_labels=local_labels,
        residuals=residuals,
        component_root_of={k: k for k in allocations},
    )
    return optimize_residuals(alignment, schedules, allow_rotations=False)
