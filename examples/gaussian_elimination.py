#!/usr/bin/env python
"""Gaussian elimination — the paper's second introductory kernel.

"Think of elementary kernels as simple as a matrix-matrix product or a
Gaussian elimination procedure: there is no way to map such kernels
onto 2-D or even 1-D grids without residual communications."

The update step of GE is

    for k = 1..N:                 (sequential)
      for i, j = 1..N:            (parallel, i > k, j > k)
        S: A[i, j] = A[i, j] - A[i, k] * A[k, j] / A[k, k]

(we keep the rectangular hull of the triangular domain — the alignment
analysis only depends on the access matrices).  Mapping it with the
two-step heuristic exposes the textbook communication structure:

* the write and the ``A[i, j]`` read align (local);
* ``A[k, j]`` — the pivot row — broadcasts along the grid's i-axis;
* ``A[i, k]`` — the multiplier column — broadcasts along the j-axis;
* ``A[k, k]`` — the pivot — is a rank-1 access feeding everybody.

Run:  python examples/gaussian_elimination.py
"""

from repro import compile_nest
from repro.ir import Schedule, ScheduledNest, parse_nest
from repro.linalg import IntMat
from repro.machine import CM5Model, MeshModel

SOURCE = """
array A(2)
for k = 1..N:
  for i = 1..N:
    for j = 1..N:
      S: A[i, j] = f(A[i, j], A[i, k], A[k, j], A[k, k])
"""


def main() -> None:
    nest = parse_nest(SOURCE, name="gauss")
    print(nest.describe())
    print()

    # k is the elimination step: sequential; i, j parallel
    schedules = ScheduledNest(
        nest=nest, schedules={"S": Schedule(theta=IntMat([[1, 0, 0]]))}
    )
    compiled = compile_nest(nest, m=2, schedules=schedules, check_legality=False)
    print(compiled.mapping.describe())
    print()
    print(compiled.summary())
    print()

    for o in compiled.mapping.optimized:
        if o.macro is not None:
            d = o.macro.direction_matrix()
            print(
                f"  {o.label}: {o.macro.kind.value} ({o.macro.extent.value})"
                f"{' along ' + str(d.tolist()) if d is not None else ''}"
            )
    print()
    print(compiled.spmd)

    machine = MeshModel(4, 4)
    rep = compiled.run(machine, params={"N": 6}, collectives=CM5Model())
    print(rep.describe())
    print()
    print(
        "The pivot-row and multiplier-column reads become the partial\n"
        "broadcasts every distributed GE implementation performs; with\n"
        "CM-5-style hardware collectives they are priced as macro ops."
    )


if __name__ == "__main__":
    main()
