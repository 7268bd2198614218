#!/usr/bin/env python
"""Redistribution with decomposition and the grouped partition.

Implements the Section 5 pipeline on the paper's Figure 7 data-flow
matrix ``T = [[1, 3], [2, 7]] = L(2) . U(3)``:

1. price the *direct* general communication (element-wise messages — a
   compiler cannot vectorize an arbitrary affine pattern);
2. decompose ``T`` into elementary factors and price the two coalesced
   axis-parallel phases under a standard CYCLIC distribution (Table 2);
3. switch to the *grouped partition* matched to each factor's stride
   and price the phases again (Figure 8's improvement).

Run:  python examples/grouped_redistribution.py
"""

from repro.decomp import decompose_dataflow
from repro.distribution import (
    BlockDistribution,
    CyclicDistribution,
    Distribution2D,
    GroupedDistribution,
)
from repro.linalg import IntMat
from repro.machine import MeshModel


def main() -> None:
    t = IntMat([[1, 3], [2, 7]])
    plan = decompose_dataflow(t)
    print(f"T = {t.tolist()}")
    print(
        f"decomposition ({plan.strategy}): "
        + " @ ".join(str(f.tolist()) for f in plan.factors)
    )
    print()

    n = 24
    p, q = 4, 4
    machine = MeshModel(p, q)
    size = 8

    def price(dist, label):
        direct = machine.time_general(dist, t, size=size)
        split = machine.time_decomposed(dist, plan.factors, size=size)
        print(
            f"{label:32s} direct={direct:9.1f}  decomposed={split:9.1f}  "
            f"speedup={direct / split:5.2f}x"
        )
        return direct, split

    block = Distribution2D(BlockDistribution(n, p), BlockDistribution(n, q))
    cyclic = Distribution2D(CyclicDistribution(n, p), CyclicDistribution(n, q))
    # grouped partition matched to the factor strides: L(2) moves along
    # rows with stride 2, U(3) along columns with stride 3
    grouped = Distribution2D(
        GroupedDistribution(n, p, k=2), GroupedDistribution(n, q, k=3)
    )

    print(f"virtual grid {n}x{n} on a {p}x{q} mesh, payload {size} per element")
    price(block, "BLOCK x BLOCK")
    price(cyclic, "CYCLIC x CYCLIC (Table 2 setup)")
    price(grouped, "GROUPED(2) x GROUPED(3)")

    print()
    print(
        "The decomposed schedule beats the direct general communication\n"
        "under every distribution, and the grouped partition shortens the\n"
        "axis-parallel phases further by keeping each residue class of\n"
        "the elementary strides on few physical processors."
    )


if __name__ == "__main__":
    main()
