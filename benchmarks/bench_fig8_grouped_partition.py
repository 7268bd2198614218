"""Figure 8 (a, b, c) — communication-time ratios of the standard
distribution schemes over the grouped partition for a ``U(k)``
communication.

Paper: three graphs (one per stride k); for each, the ratio of the
time under CYCLIC(B) (dotted), full BLOCK (dashed) and CYCLIC (solid)
over the grouped-partition time.  The grouped partition is always at
least as good as BLOCK and CYCLIC(B); plain CYCLIC performs well
"because it amounts to the grouped partition with k = 1".

We sweep the CYCLIC block size B = 1..8 for k in {3, 4, 8} on a 4x4
mesh with a 48x48 virtual grid, and assert the orderings.
"""

import pytest

from repro.decomp import U
from repro.distribution import (
    BlockCyclicDistribution,
    BlockDistribution,
    CyclicDistribution,
    Distribution2D,
    GroupedDistribution,
)
from repro.machine import MeshModel, affine_pattern

from _harness import print_table, series

N = 48
P, Q = 4, 4
SIZE = 4
BLOCK_SIZES = list(range(1, 9))
# strides not equal to P: with k == P the grouped partition makes the
# whole U(k) communication local (see bench_fig7_two_phase), which
# degenerates every ratio to infinity
KS = (2, 3, 6)


def time_u_comm(machine, row_dist, k):
    """Time of the U(k) pattern with rows distributed by ``row_dist``
    (columns BLOCK — the U communication only moves the row index)."""
    dist = Distribution2D(row_dist, BlockDistribution(N, Q))
    msgs = affine_pattern(dist, U(k), size=SIZE)
    return machine.time_phase(msgs).time


def compute_figure(k):
    machine = MeshModel(P, Q)
    grouped = time_u_comm(machine, GroupedDistribution(N, P, k=k), k)
    block = time_u_comm(machine, BlockDistribution(N, P), k)
    cyclic = time_u_comm(machine, CyclicDistribution(N, P), k)
    cyclic_b = [
        time_u_comm(machine, BlockCyclicDistribution(N, P, block=b), k)
        for b in BLOCK_SIZES
    ]
    return {
        "grouped": grouped,
        "block_ratio": block / grouped,
        "cyclic_ratio": cyclic / grouped,
        "cyclic_b_ratios": [t / grouped for t in cyclic_b],
    }


@pytest.mark.parametrize("k", KS)
def test_fig8_grouped_partition(k):
    data = compute_figure(k)
    print(f"\nFigure 8 — U({k}) on {N}x{N} virtual, {P}x{Q} mesh "
          f"(ratios over grouped partition)")
    series("CYCLIC(B), B=1..8 (dotted)", BLOCK_SIZES, data["cyclic_b_ratios"])
    series("BLOCK (dashed)", ["-"], [data["block_ratio"]])
    series("CYCLIC (solid)", ["-"], [data["cyclic_ratio"]])
    # shape claims of Section 5.3
    assert data["block_ratio"] >= 1.0, "grouped never loses to BLOCK"
    assert all(r >= 0.99 for r in data["cyclic_b_ratios"]), (
        "grouped never loses to CYCLIC(B)"
    )
    # CYCLIC is competitive when the stride is coprime to P (it then
    # behaves like a grouped partition of its own); when gcd(k, P) > 1
    # the residue structure collides with the round-robin and the
    # grouped partition wins big (the tall ratios of the paper's plots)
    import math

    if math.gcd(k, P) == 1:
        assert data["cyclic_ratio"] < 2.0
    else:
        assert data["cyclic_ratio"] >= 1.0


def test_fig8_block_suffers_most_at_large_k():
    def worst_block_ratio():
        out = {}
        for k in KS:
            d = compute_figure(k)
            out[k] = d["block_ratio"]
        return out

    ratios = worst_block_ratio()
    print_table(
        "Figure 8 — BLOCK/grouped ratio by stride k",
        ["k"] + [str(k) for k in KS],
        [["ratio"] + [ratios[k] for k in KS]],
    )
    assert max(ratios.values()) > 1.2, "BLOCK pays visibly somewhere"


def test_fig8_matched_stride_is_free():
    """k == P: every residue class coincides with one physical block
    and the U(k) communication is entirely processor-local under the
    grouped partition — the strongest possible ratio of the figure."""
    machine = MeshModel(P, Q)
    t = time_u_comm(machine, GroupedDistribution(N, P, k=P), P)
    assert t == 0.0
    block = time_u_comm(machine, BlockDistribution(N, P), P)
    assert block > 0.0
