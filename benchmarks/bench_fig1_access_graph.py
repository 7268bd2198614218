"""Figures 1 and 2 — the access graph of the motivating example with
its matrix and integer weights.

Paper: the graph over {a, b, c, S1, S2, S3} has 7 edges (the
rank-deficient access is not represented); integer weights are the
access-matrix ranks, so the two depth-3 square writes carry the
maximum weight 3.
"""

from repro.alignment import build_access_graph
from repro.ir import motivating_example

from _harness import print_table


def build():
    return build_access_graph(motivating_example(), m=2)


def test_fig1_access_graph():
    ag = build()
    labels = sorted({e.payload.ref.label for e in ag.graph.edges()})
    rows = []
    for lab in labels:
        edges = ag.edges_of_access(lab)
        dirs = ", ".join(f"{e.src.split(':')[1]}->{e.dst.split(':')[1]}" for e in edges)
        rows.append([lab, edges[0].weight, dirs])
    print_table(
        "Figures 1-2 — access graph edges (m=2)",
        ["access", "weight", "direction(s)"],
        rows,
    )
    assert labels == ["F1", "F2", "F3", "F4", "F5", "F6", "F7"]
    assert [r.label for r in ag.excluded] == ["F8"]
    weights = {lab: ag.edges_of_access(lab)[0].weight for lab in labels}
    assert weights["F5"] == weights["F7"] == 3
    assert all(weights[l] == 2 for l in ("F1", "F2", "F3", "F4", "F6"))


def test_fig2_weight_distribution():
    def weight_hist():
        ag = build()
        hist = {}
        for e in ag.graph.edges():
            hist[e.weight] = hist.get(e.weight, 0) + 1
        return hist

    hist = weight_hist()
    # square accesses contribute two directed edges each
    assert hist[3] == 4  # F5, F7 in both directions
    assert hist[2] == 7  # F2, F3 (x2 each) + F1 + F4 + F6
