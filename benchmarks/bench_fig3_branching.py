"""Figure 3 — a maximum branching of the access graph.

Paper: the branching contains 5 of the 7 edges, so 5 communications
become local and 2 remain; both maximum-weight (3) edges are zeroed
out; the component has a single input vertex.
"""

from repro.alignment import (
    build_access_graph,
    maximum_branching,
    two_step_heuristic,
)
from repro.ir import motivating_example

from _harness import print_table


def run_branching():
    ag = build_access_graph(motivating_example(), m=2)
    chosen = maximum_branching(ag.graph)
    return ag, chosen


def test_fig3_maximum_branching():
    ag, chosen = run_branching()
    g = ag.graph
    rows = [
        [
            g.edge(eid).payload.ref.label,
            g.edge(eid).src.split(":")[1],
            g.edge(eid).dst.split(":")[1],
            g.edge(eid).weight,
        ]
        for eid in sorted(chosen)
    ]
    print_table(
        "Figure 3 — maximum branching (5 edges, weight 12)",
        ["access", "from", "to", "weight"],
        rows,
    )
    assert len(chosen) == 5
    assert g.total_weight(chosen) == 12
    labels = {g.edge(eid).payload.ref.label for eid in chosen}
    # both weight-3 accesses are zeroed out
    assert {"F5", "F7"} <= labels


def test_fig3_local_residual_split():
    result = two_step_heuristic(motivating_example(), m=2)
    assert result.alignment.local_labels == {"F1", "F2", "F4", "F5", "F7"}
    residual_graph_labels = {
        r.ref.label
        for r in result.alignment.residuals
        if r.ref.label != "F8"  # F8 is outside the graph
    }
    assert residual_graph_labels == {"F3", "F6"}
