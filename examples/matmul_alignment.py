#!/usr/bin/env python
"""Aligning a matrix-matrix product — the paper's introductory claim.

The introduction observes that kernels as simple as ``C = A x B``
cannot be mapped onto a 2-D grid without residual communications.
This example builds the triple loop

    for i, j, k:  S: c[i, j] += a[i, k] * b[k, j]

runs the two-step heuristic, and shows what the residuals become:
whichever array is aligned with the computation, the two others force
communications — which the heuristic turns into macro-communications
(broadcast along grid rows / columns, plus the reduction along k when
the accumulation is scheduled sequentially).

Run:  python examples/matmul_alignment.py
"""

from repro.alignment import two_step_heuristic
from repro.ir import NestBuilder
from repro.machine import MeshModel
from repro.runtime import Folding, MappedProgram, execute


def build_matmul():
    b = NestBuilder("matmul")
    b.array("a", 2).array("b", 2).array("c", 2)
    loops = [("i", 0, "N"), ("j", 0, "N"), ("k", 0, "N")]
    b.statement(
        "S",
        loops,
        writes=[("c", [[1, 0, 0], [0, 1, 0]], None, "Fc")],
        reads=[
            ("a", [[1, 0, 0], [0, 0, 1]], None, "Fa"),
            ("b", [[0, 0, 1], [0, 1, 0]], None, "Fb"),
            ("c", [[1, 0, 0], [0, 1, 0]], None, "FcR"),
        ],
    )
    return b.build()


def main() -> None:
    nest = build_matmul()
    print(nest.describe())
    print()

    # The accumulation c[i,j] += ... carries a dependence along k, so a
    # realistic schedule runs k sequentially (it is the time axis) and
    # (i, j) in parallel.  We express that directly: theta = e_k.
    from repro.ir import Schedule, ScheduledNest
    from repro.linalg import IntMat

    schedules = ScheduledNest(
        nest=nest,
        schedules={"S": Schedule(theta=IntMat([[0, 0, 1]]))},
    )

    result = two_step_heuristic(nest, m=2, schedules=schedules)
    print(result.describe())
    print()
    print("classification counts:", result.counts())
    print()
    print(
        "No communication-free 2-D mapping exists for matmul: aligning c\n"
        "with the computation leaves the reads of a and b non-local, and\n"
        "the heuristic recognizes them as macro-communications (the\n"
        "broadcast patterns of the classical SUMMA algorithm emerge)."
    )
    for o in result.optimized:
        if o.macro is not None:
            d = o.macro.direction_matrix()
            print(
                f"  {o.label}: {o.macro.kind.value} ({o.macro.extent.value}), "
                f"grid directions {d.tolist() if d else '—'}"
            )

    machine = MeshModel(4, 4)
    folding = Folding(mesh=machine.mesh, extent=8)
    program = MappedProgram(mapping=result, folding=folding, params={"N": 7})
    report = execute(program, machine)
    print()
    print(report.describe())


if __name__ == "__main__":
    main()
