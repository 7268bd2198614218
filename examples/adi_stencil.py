#!/usr/bin/env python
"""ADI-style alternating sweeps: the front end, the heuristic and the
SPMD generator working together.

An Alternating-Direction-Implicit kernel sweeps a 2-D field along rows
then along columns.  The two sweeps prefer transposed layouts, so one
of the two phases necessarily communicates — a classic instance of the
paper's premise that communication-free mappings do not exist.  This
example parses the nest from source, maps it, prints the SPMD
pseudo-program and shows how the residual communication is classified.

Run:  python examples/adi_stencil.py
"""

from repro.alignment import two_step_heuristic
from repro.codegen import generate_spmd
from repro.ir import parse_nest, outer_sequential_schedules
from repro.machine import MeshModel
from repro.report import format_mapping_summary
from repro.runtime import Folding, MappedProgram, execute

SOURCE = """
array u(2), v(2)
for t = 1..T:
  for i = 1..N:
    for j = 1..N:
      Srow: v[i, j] = f(u[i, j], u[i, j-1], u[i, j+1])
  for i = 1..N:
    for j = 1..N:
      Scol: u[j, i] = g(v[j, i], v[j-1, i], v[j+1, i])
"""


def main() -> None:
    nest = parse_nest(SOURCE, name="adi")
    print(nest.describe())
    print()

    # the outer time loop is sequential; the sweeps are parallel
    schedules = outer_sequential_schedules(nest, outer=1)
    result = two_step_heuristic(nest, m=2, schedules=schedules)
    print(result.describe())
    print()
    print(format_mapping_summary(result))
    print()
    print(generate_spmd(result))

    machine = MeshModel(4, 4)
    folding = Folding(mesh=machine.mesh, extent=8)
    program = MappedProgram(
        mapping=result, folding=folding, params={"T": 2, "N": 6}
    )
    report = execute(program, machine)
    print(report.describe())
    print()
    print(
        "The row sweep aligns u and v identically (all references local\n"
        "up to constant shifts); the residual cost concentrates in the\n"
        "transposed column sweep, exactly the phase ADI implementations\n"
        "pay as an explicit transpose."
    )


if __name__ == "__main__":
    main()
