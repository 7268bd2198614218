"""Figure 7 — the two-phase grouped mapping for ``T = L(2) . U(3)``.

Paper: a 10x6 grid of virtual processors is mapped onto a smaller
physical grid with the grouped partition in both dimensions (stride 3
for the U phase along rows, stride 2 for the L phase along columns);
the two communications are performed one after the other, each
axis-parallel and class-local.
"""

from repro.decomp import L, U, verify_factors
from repro.distribution import (
    BlockDistribution,
    Distribution2D,
    GroupedDistribution,
)
from repro.linalg import IntMat
from repro.machine import MeshModel

from _harness import print_table

T = IntMat([[1, 3], [2, 7]])
FACTORS = [L(2), U(3)]


def test_fig7_factorization():
    ok = verify_factors(T, FACTORS)
    assert ok
    # i' = i + 3 j ; then j'' = j' + 2 i' — the paper's two maps
    assert (U(3) @ IntMat.col([1, 1])) == IntMat.col([4, 1])
    assert (L(2) @ IntMat.col([4, 1])) == IntMat.col([4, 9])
    assert (T @ IntMat.col([1, 1])) == IntMat.col([4, 9])


def test_fig7_two_phase_execution():
    """Both phases stay axis-parallel on the grouped layout and the
    two-phase schedule beats the direct general pattern (the paper's
    10x6 virtual grid)."""
    n1, n2 = 10, 6
    machine = MeshModel(3, 2)
    grouped = Distribution2D(
        GroupedDistribution(n1, 3, k=3),  # rows move by U(3)'s stride
        GroupedDistribution(n2, 2, k=2),  # cols move by L(2)'s stride
    )
    block = Distribution2D(BlockDistribution(n1, 3), BlockDistribution(n2, 2))

    def price():
        return {
            "grouped": machine.time_decomposed(grouped, FACTORS, size=4),
            "block": machine.time_decomposed(block, FACTORS, size=4),
            "direct": machine.time_general(grouped, T, size=4),
        }

    times = price()
    print_table(
        "Figure 7 — two-phase execution of T = L(2)U(3) (10x6 on 3x2)",
        ["schedule", "time"],
        [[k, v] for k, v in times.items()],
    )
    assert times["grouped"] < times["direct"]
    assert times["grouped"] <= times["block"]


def test_fig7_matched_stride_fully_local():
    """When the grid sizes align classes with physical blocks, the
    grouped partition makes the elementary phases entirely local —
    the limit case of the paper's construction."""
    machine = MeshModel(3, 2)
    grouped = Distribution2D(
        GroupedDistribution(12, 3, k=3), GroupedDistribution(12, 2, k=2)
    )
    t = machine.time_decomposed(grouped, FACTORS, size=4)
    assert t == 0.0
