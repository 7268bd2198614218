"""Figures 4 and 5 — total versus partial broadcast geometry.

Paper: with ``p`` the dimension of ``ker θ ∩ ker F_a \\ ker M_S``, the
broadcast is total when ``p = m``, partial when ``1 <= p < m`` and
hidden when ``p = 0``; partial broadcasts must run along grid axes.
We sweep kernel dimensions and verify the classification matches, and
price the three cases on the mesh model (a total broadcast reaches the
whole grid, a partial one a single row).
"""

from repro.linalg import IntMat
from repro.machine import (
    MeshModel,
    broadcast_tree_phases,
    partial_broadcast_row_phases,
)
from repro.macrocomm import Extent, detect_broadcast

from _harness import print_table

ZERO4 = IntMat.zeros(1, 4)


def classify_cases():
    cases = []
    # p = 2 on a 2-D grid: total
    f_total = IntMat([[1, 0, 0, 0], [0, 1, 0, 0]])
    ms = IntMat([[0, 0, 1, 0], [0, 0, 0, 1]])
    cases.append(("total", detect_broadcast(ZERO4, f_total, ms)))
    # p = 1: partial
    f_partial = IntMat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    cases.append(("partial", detect_broadcast(ZERO4, f_partial, ms)))
    # kernel fully hidden by the mapping
    ms_hide = IntMat([[1, 0, 0, 0], [0, 1, 0, 0]])
    cases.append(("hidden", detect_broadcast(ZERO4, f_total, ms_hide)))
    return cases


def test_fig45_classification():
    cases = classify_cases()
    rows = [
        [name, bc.extent.value, bc.p, bc.axis_parallel]
        for name, bc in cases
    ]
    print_table(
        "Figures 4-5 — broadcast classification (m=2)",
        ["case", "extent", "p", "axis-parallel"],
        rows,
    )
    by_name = dict(cases)
    assert by_name["total"].extent is Extent.TOTAL
    assert by_name["partial"].extent is Extent.PARTIAL
    assert by_name["hidden"].extent is Extent.HIDDEN


def test_fig45_cost_total_vs_partial():
    """A partial (row) broadcast is cheaper than a total one."""
    machine = MeshModel(4, 4)

    def price():
        total = machine.time_phases(
            broadcast_tree_phases(machine.mesh, root=(0, 0), size=16)
        )
        partial = machine.time_phases(
            partial_broadcast_row_phases(machine.mesh, axis=1, size=16)
        )
        return total, partial

    total, partial = price()
    assert partial < total
