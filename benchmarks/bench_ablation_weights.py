"""Ablation A1 — integer rank weights vs unit weights in the maximum
branching, and Edmonds vs the Feautrier-style greedy baseline.

The paper weights access-graph edges by the rank of the access matrix
so "communications inducing the largest traffic are zeroed out in
priority".  This ablation measures, over a family of random affine
nests, (a) the localized traffic with and without rank weights, and
(b) the greedy baseline's gap to the optimal branching.
"""

import random

from repro.alignment import align, build_access_graph, maximum_branching
from repro.baselines import greedy_edge_selection
from repro.ir import NestBuilder
from repro.linalg import IntMat, rank

from _harness import print_table


def random_nest(rng: random.Random, idx: int):
    """A random 2-statement affine nest over three arrays."""
    b = NestBuilder(f"rand{idx}")
    dims = {"x": rng.choice([2, 3]), "y": rng.choice([2, 3]), "z": 2}
    for name, d in dims.items():
        b.array(name, d)

    def rand_access(arr, depth):
        qd = dims[arr]
        for _ in range(40):
            f = IntMat(
                [
                    [rng.randint(-1, 1) for _ in range(depth)]
                    for _ in range(qd)
                ]
            )
            if rank(f) == min(qd, depth):
                return (arr, f.tolist(), None)
        ident = [[1 if i == j else 0 for j in range(depth)] for i in range(qd)]
        return (arr, ident, None)

    loops2 = [("i", 0, "N"), ("j", 0, "N")]
    loops3 = loops2 + [("k", 0, "N")]
    b.statement(
        "S1",
        loops2,
        writes=[rand_access("x", 2)],
        reads=[rand_access("y", 2), rand_access("z", 2)],
    )
    b.statement(
        "S2",
        loops3,
        writes=[rand_access("y", 3)],
        reads=[rand_access("x", 3), rand_access("z", 3)],
    )
    return b.build()


def localized_traffic(nest, m, use_rank_weights):
    """Sum of rank weights of the accesses made local by step 1."""
    al = align(nest, m, use_rank_weights=use_rank_weights)
    total = 0
    for stmt, acc in nest.all_accesses():
        if (acc.label or "") in al.local_labels:
            total += acc.rank
    return total


def test_a1_rank_weights_help():
    def sweep():
        rng = random.Random(20260612)
        with_w, without_w = 0, 0
        for idx in range(30):
            nest = random_nest(rng, idx)
            with_w += localized_traffic(nest, 2, True)
            without_w += localized_traffic(nest, 2, False)
        return with_w, without_w

    with_w, without_w = sweep()
    print_table(
        "A1 — localized traffic (sum of ranks) over 30 random nests",
        ["rank weights", "unit weights"],
        [[with_w, without_w]],
    )
    assert with_w >= without_w, "rank weights must not lose traffic"


def test_a1_edmonds_vs_greedy():
    def sweep():
        rng = random.Random(42)
        edmonds_total, greedy_total = 0, 0
        wins = 0
        for idx in range(30):
            nest = random_nest(rng, idx)
            g = build_access_graph(nest, 2).graph
            e = g.total_weight(maximum_branching(g))
            gr = g.total_weight(greedy_edge_selection(g))
            edmonds_total += e
            greedy_total += gr
            if e > gr:
                wins += 1
        return edmonds_total, greedy_total, wins

    e_total, g_total, wins = sweep()
    print_table(
        "A1 — branching weight: Edmonds vs greedy (30 random nests)",
        ["edmonds", "greedy", "strict wins"],
        [[e_total, g_total, wins]],
    )
    assert e_total >= g_total, "Edmonds is optimal by construction"
